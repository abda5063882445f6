package comm

// This file holds what tests read of a Group and no program does.

// Calls returns how many collectives the group has executed.
func (g *Group) Calls() int64 { return g.calls.Load() }
