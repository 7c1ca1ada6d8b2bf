package main

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"time"

	"currency/internal/api"
	"currency/internal/client"
	"currency/internal/spec"
)

// clients is the number of load-generating goroutines, each with its
// own connection per node.
const clients = 2

// failLat is the latency recorded for a failed, refused, indeterminate
// or wrong answer: it misses every latency limit.
const failLat = time.Duration(math.MaxInt64)

// lagTimeout bounds how long a ring-mix write waits for its follower to
// serve the new version before the write counts as failed.
const lagTimeout = 5 * time.Second

// lagEvery is how often a ring-mix write waits for its follower: every
// lagEvery-th version of each spec. Waiting on every write would add
// about one probe read per op, in amounts that follow the lag itself.
const lagEvery = 8

// chain is the write history of one specification. During the load only
// the client owning the spec's half touches it.
//
// Each write inserts one tuple and reveals one order pair, and from the
// second write on it also deletes the tuple the previous write inserted.
// The specification therefore keeps its size however many writes a run
// manages, so a write costs the same at the end of a run as at its
// start, and the tuples reads address (the base ones) keep their
// indices.
type chain struct {
	cur      *spec.Spec // the spec at the latest acknowledged version
	version  int
	deltas   []*spec.Delta // deltas[k] takes version k+1 to k+2
	rng      *rand.Rand
	inserted string      // relation holding the last write's tuple, as its last tuple
	next     *spec.Delta // prepared before the write is sent
	nextReq  api.DeltaRequest
	broken   bool
}

func newChain(in *specInput, seed int64) (*chain, error) {
	ch := &chain{cur: in.file.Spec, version: 1, rng: rand.New(rand.NewSource(seed))}
	return ch, ch.prepare()
}

// prepare draws the next write against the current version.
func (ch *chain) prepare() error {
	base := ch.cur
	var del []spec.TupleDelete
	if ch.inserted != "" {
		del = []spec.TupleDelete{{Rel: ch.inserted, Index: relationLen(base, ch.inserted) - 1}}
		var err error
		if base, err = specApply(&spec.Delta{Deletes: del}, base); err != nil {
			return err
		}
	}
	// The insert and the reveal are drawn against the post-delete spec,
	// whose indices are the combined delta's post-delta indices.
	d := genDelta(ch.rng, base)
	d.Deletes = del
	ch.next, ch.nextReq = d, genWire(ch.cur, d)
	return nil
}

// advance records the acknowledged delta and prepares the next one.
func (ch *chain) advance() error {
	ns, err := specApply(ch.next, ch.cur)
	if err != nil {
		return err
	}
	ch.deltas = append(ch.deltas, ch.next)
	ch.inserted = ch.next.Inserts[0].Rel
	ch.cur = ns
	ch.version++
	return ch.prepare()
}

// sample is one op's latency and when it completed (in the open loop:
// when it was due), as an offset from the start of its phase.
type sample struct{ at, lat time.Duration }

// phase accumulates one client's results in one phase.
type phase struct {
	start                        time.Time
	attempted, ok, failed, wrong int
	reads, writes                []sample        // per op class (the open loop reports both together)
	lags                         []time.Duration // ring-mix: owner ack to follower serving the version
	late                         []time.Duration // open loop: generator lateness
	records                      []readRecord
	errs                         []string
}

// readRecord is a read served at a version after 1, kept for the replay
// oracle. lats/idx locate the sample of the op it belongs to, voided if
// the replay disagrees.
type readRecord struct {
	spec, version int
	rq            *readReq
	got           verdict
	ph            *phase
	lats          *[]sample
	idx           int
}

func (p *phase) fail(lats *[]sample, format string, args ...any) {
	p.failed++
	*lats = append(*lats, sample{at: time.Since(p.start), lat: failLat})
	if len(p.errs) < 4 {
		p.errs = append(p.errs, fmt.Sprintf(format, args...))
	}
}

func (p *phase) succeed(lats *[]sample, d time.Duration) {
	p.ok++
	*lats = append(*lats, sample{at: time.Since(p.start), lat: d})
}

// runner drives one workload against one system under test.
type runner struct {
	w      workload
	specs  []*specInput
	t      *sut
	chains []*chain // nil on read-only workloads
}

func newRunner(w workload, specs []*specInput, t *sut, seed int64) (*runner, error) {
	r := &runner{w: w, specs: specs, t: t}
	if w.patchShare > 0 {
		for k, in := range specs {
			ch, err := newChain(in, seed*1000+int64(k))
			if err != nil {
				return nil, err
			}
			r.chains = append(r.chains, ch)
		}
	}
	return r, nil
}

// op draws and runs one operation, timed from its send time, and
// returns the latency slice it appended its one sample to. Writes, when
// allowed, go to the client's own half of the specifications; reads to
// any. On a ring a closed-loop write also waits for its follower.
func (r *runner) op(cn *conn, p *phase, rng *rand.Rand, me int, writes, open bool) []sample {
	p.attempted++
	if writes && r.chains != nil && rng.Float64() < r.w.patchShare {
		half := numSpecs / clients
		s := me*half + rng.Intn(half)
		r.patch(cn, p, s, time.Now(), &p.writes, r.t.ring != nil && !open)
		return p.writes
	}
	s := rng.Intn(numSpecs)
	o := r.w.reads[rng.Intn(len(r.w.reads))]
	rq := &r.specs[s].pool[o][rng.Intn(poolPerOp)]
	r.read(cn.pick(), p, s, rq, time.Now(), &p.reads)
	return p.reads
}

func (r *runner) read(cl *client.Client, p *phase, s int, rq *readReq, start time.Time, lats *[]sample) {
	res, err := clientDecide(cl, r.specs[s].id, &rq.req)
	lat := time.Since(start)
	got, bad := checkShape(&res, err, rq.req.Op)
	switch {
	case bad != "":
		p.fail(lats, "%s %s: %s", r.specs[s].id, rq.req.Op, bad)
	case res.SpecVersion == 1:
		if got != rq.want {
			p.wrong++
			p.fail(lats, "%s %s v1: got %+v, oracle %+v", r.specs[s].id, rq.req.Op, got, rq.want)
			return
		}
		p.succeed(lats, lat)
	case r.chains == nil:
		p.fail(lats, "%s served version %d on a read-only workload", r.specs[s].id, res.SpecVersion)
	default:
		p.succeed(lats, lat)
		p.records = append(p.records, readRecord{
			spec: s, version: res.SpecVersion, rq: rq, got: got, ph: p, lats: lats, idx: len(*lats) - 1,
		})
	}
}

func (r *runner) patch(cn *conn, p *phase, s int, start time.Time, lats *[]sample, probe bool) {
	ch := r.chains[s]
	id := r.specs[s].id
	if ch.broken {
		p.fail(lats, "%s: write history lost", id)
		return
	}
	res, err := clientPatch(cn.pick(), id, ch.nextReq)
	ack := time.Now()
	lat := ack.Sub(start)
	if err != nil {
		p.fail(lats, "%s patch: %v", id, err)
		return
	}
	if res.Version != ch.version+1 {
		ch.broken = true
		p.fail(lats, "%s patch: acknowledged version %d, want %d", id, res.Version, ch.version+1)
		return
	}
	if err := ch.advance(); err != nil {
		ch.broken = true
		p.fail(lats, "%s patch: the harness could not apply its own delta: %v", id, err)
		return
	}
	if probe && res.Version%lagEvery == 0 && !r.awaitFollower(cn, p, s, res.Version, ack, lats) {
		p.fail(lats, "%s: follower did not serve version %d within %v", id, res.Version, lagTimeout)
		return
	}
	p.succeed(lats, lat)
}

// awaitFollower reads spec s at its follower until it serves version v,
// recording the lag from the owner's acknowledgement. The final read's
// verdict joins the replay sample, tied to the write's latency sample
// (the next one appended to lats).
func (r *runner) awaitFollower(cn *conn, p *phase, s, v int, ack time.Time, lats *[]sample) bool {
	f := cn.clients[r.t.follower(r.specs[s].id)]
	rq := &r.specs[s].pool[api.OpConsistent][0]
	for time.Since(ack) < lagTimeout {
		res, err := clientDecide(f, r.specs[s].id, &rq.req)
		got, bad := checkShape(&res, err, api.OpConsistent)
		if bad != "" {
			return false
		}
		if res.SpecVersion >= v {
			p.lags = append(p.lags, time.Since(ack))
			p.records = append(p.records, readRecord{
				spec: s, version: res.SpecVersion, rq: rq, got: got, ph: p, lats: lats, idx: len(*lats),
			})
			return true
		}
	}
	return false
}

// checkShape turns a response into the verdict the oracle compares, or
// says why it is a failure: an error, a refusal, an indeterminate or
// degraded answer, or a missing payload.
func checkShape(res *api.DecisionResult, err error, op api.Op) (verdict, string) {
	switch {
	case err != nil:
		return verdict{}, err.Error()
	case res.Error != "":
		return verdict{}, res.Error
	case res.Indeterminate:
		return verdict{}, "indeterminate: " + res.Reason
	case res.Degraded:
		return verdict{}, "degraded: " + res.Reason
	}
	v := verdict{vacuous: res.VacuouslyTrue}
	if op == api.OpCertainAnswers {
		if res.Answers == nil && !res.VacuouslyTrue {
			return verdict{}, "no answer set"
		}
		if res.Answers != nil {
			v.answers = canonWire(res.Answers)
		}
		return v, ""
	}
	if res.Holds == nil {
		return verdict{}, "no verdict"
	}
	v.holds = *res.Holds
	return v, ""
}

// loop is the outcome of one closed- or open-loop phase: one phase per
// client, the phase length, and (closed loop) the process CPU time read
// at each window boundary.
type loop struct {
	phases []*phase
	length time.Duration
	cpu    []time.Duration
}

// windows is how many equal slices of a phase the windowed metrics are
// taken over (see quartile), so interference from outside the process
// moves some windows, not the reported value.
const windows = 20

// closedLoop runs the clients back to back for d, reading the process
// CPU time at each window boundary.
func (r *runner) closedLoop(conns []*conn, d time.Duration, seed int64, readsOnly bool) loop {
	l := loop{phases: make([]*phase, clients), length: d}
	start := time.Now()
	end := start.Add(d)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		l.phases[c] = &phase{start: start}
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed*31 + int64(c)))
			p := l.phases[c]
			for time.Now().Before(end) {
				r.op(conns[c], p, rng, c, !readsOnly, false)
			}
		}(c)
	}
	for k := 0; k <= windows; k++ {
		if k > 0 {
			time.Sleep(time.Until(start.Add(d * time.Duration(k) / windows)))
		}
		l.cpu = append(l.cpu, processCPU())
	}
	wg.Wait()
	return l
}

// openLoop runs two senders on independent Poisson schedules summing to
// the workload's rate for d. Each request is timed from its due time, so
// a stall shows up in the latency of every request queued behind it.
//
// Sleeps on this kind of host overshoot by up to a millisecond, which
// would swamp a 70µs request. So each sender keeps the schedule an
// on-time generator would have kept: a request's ideal send is the later
// of its due time and its predecessor's ideal completion, its ideal
// completion adds the service time measured on the wire, and its latency
// is ideal completion minus due time. Waiting behind a slow predecessor
// counts; the generator's own timer lateness (reported separately as
// harness.open_late_p99_us) does not.
func (r *runner) openLoop(conns []*conn, d time.Duration, seed int64) loop {
	l := loop{phases: make([]*phase, clients), length: d}
	start := time.Now()
	end := start.Add(d)
	perSender := r.w.openRate / clients
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		l.phases[c] = &phase{start: start}
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed*37 + int64(c)))
			p := l.phases[c]
			due, idealFree := start, start
			for {
				due = due.Add(time.Duration(rng.ExpFloat64() / perSender * float64(time.Second)))
				if !due.Before(end) {
					return
				}
				if wait := time.Until(due); wait > 0 {
					time.Sleep(wait)
				}
				sent := time.Now()
				idealSend := due
				if idealFree.After(due) {
					idealSend = idealFree
				}
				p.late = append(p.late, sent.Sub(idealSend))
				lats := r.op(conns[c], p, rng, c, true, true)
				last := &lats[len(lats)-1]
				last.at = due.Sub(start)
				if last.lat == failLat {
					idealFree = idealSend.Add(time.Since(sent))
					continue
				}
				idealFree = idealSend.Add(last.lat)
				last.lat = idealFree.Sub(due)
			}
		}(c)
	}
	wg.Wait()
	return l
}
