package sampler

import (
	"slices"

	"skyfaas/internal/saaf"
)

// OnReports makes every later poll of s call f with its reports: the SAAF
// profile of each successful request, in tree order. The slab they sit in
// is the run's, which the next poll clears, so f must copy what it keeps.
func (s *Sampler) OnReports(f func([]saaf.Report)) {
	s.onReports = func(slab []saaf.Report) {
		f(slices.DeleteFunc(slab, func(rep saaf.Report) bool { return rep.Instance == 0 }))
	}
}
