package tractable

import (
	"currency/internal/query"
	"currency/internal/spec"
)

// CertainAnswersSP computes the certain current answers of an SP query on
// a constraint-free specification in PTIME; see View.CertainAnswersSP.
func CertainAnswersSP(s *spec.Spec, q *query.Query) (*query.Result, bool, error) {
	v, err := NewView(s)
	if err != nil {
		return nil, false, err
	}
	return v.CertainAnswersSP(q)
}
