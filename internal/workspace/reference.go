package workspace

// This file holds the occupancy readings that tests check the pools'
// and arenas' accounting with. No program reads them.

// Live reports how many slices the arena currently holds.
func (a *Arena) Live() int {
	return len(a.f64s) + len(a.f32s) + len(a.ints)
}

// InUseBytes returns the bytes currently checked out across all pools.
func InUseBytes() int64 { return inUseBytes.Load() }
