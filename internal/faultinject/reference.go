package faultinject

// This file holds the fault counters that tests read to see that the
// faults they configured fired. No program reads them.

// Stats counts the faults an Injector actually fired.
type Stats struct {
	Errors int64
	Panics int64
	Delays int64
}

// Stats snapshots the fault counters.
func (inj *Injector) Stats() Stats {
	return Stats{Errors: inj.errors.Load(), Panics: inj.panics.Load(), Delays: inj.delays.Load()}
}
