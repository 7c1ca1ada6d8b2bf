package main

import (
	"fmt"
	"math/rand"
	"sort"

	"currency/internal/core"
	"currency/internal/spec"
)

// replayMax caps how many reads served after a write are replayed per
// run. Each distinct (spec, version) in the sample costs one
// from-scratch grounding.
const replayMax = 400

// replay checks a seeded sample of the reads served at versions after 1
// against a from-scratch Reasoner grounded on the specification at that
// version, rebuilt by applying the acknowledged deltas to the base. A
// disagreement turns the read's op into a failed op and voids its
// latency sample; it is never dropped from the sample.
func (r *runner) replay(phases []*phase, seed int64) (checked int, errs []string) {
	var recs []*readRecord
	for _, p := range phases {
		for i := range p.records {
			recs = append(recs, &p.records[i])
		}
	}
	if len(recs) == 0 {
		return 0, nil
	}
	rng := rand.New(rand.NewSource(seed*41 + 7))
	rng.Shuffle(len(recs), func(i, j int) { recs[i], recs[j] = recs[j], recs[i] })
	if len(recs) > replayMax {
		recs = recs[:replayMax]
	}
	sort.Slice(recs, func(i, j int) bool {
		if recs[i].spec != recs[j].spec {
			return recs[i].spec < recs[j].spec
		}
		return recs[i].version < recs[j].version
	})
	reject := func(rec *readRecord, format string, args ...any) {
		p := rec.ph
		p.ok--
		p.failed++
		p.wrong++
		if rec.idx < len(*rec.lats) {
			(*rec.lats)[rec.idx].lat = failLat
		}
		if len(errs) < 4 {
			errs = append(errs, fmt.Sprintf(format, args...))
		}
	}
	var (
		cur     *spec.Spec
		curSpec = -1
		curVer  int
		rsn     *core.Reasoner
	)
	for _, rec := range recs {
		ch := r.chains[rec.spec]
		if rec.spec != curSpec {
			cur, curSpec, curVer, rsn = r.specs[rec.spec].file.Spec, rec.spec, 1, nil
		}
		if rec.version > 1+len(ch.deltas) {
			reject(rec, "%s: read served version %d, beyond the %d acknowledged writes",
				r.specs[rec.spec].id, rec.version, len(ch.deltas))
			continue
		}
		for curVer < rec.version {
			ns, err := specApply(ch.deltas[curVer-1], cur)
			if err != nil {
				reject(rec, "%s: replaying delta %d: %v", r.specs[rec.spec].id, curVer, err)
				break
			}
			cur, curVer, rsn = ns, curVer+1, nil
		}
		if curVer != rec.version {
			continue
		}
		if rsn == nil {
			var err error
			if rsn, err = coreGround(cur); err != nil {
				reject(rec, "%s v%d: grounding the oracle: %v", r.specs[rec.spec].id, curVer, err)
				continue
			}
		}
		want, err := oracleVerdict(rsn, cur, rec.rq.rr)
		checked++
		if err != nil {
			reject(rec, "%s v%d %s: oracle: %v", r.specs[rec.spec].id, curVer, rec.rq.req.Op, err)
			continue
		}
		if want != rec.got {
			reject(rec, "%s v%d %s %v: served %+v, oracle %+v",
				r.specs[rec.spec].id, curVer, rec.rq.req.Op, rec.rq.req.Orders, rec.got, want)
		}
	}
	return checked, errs
}
