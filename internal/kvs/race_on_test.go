//go:build race

package kvs

// raceEnabled reports that the race detector is active. Allocation
// counts are skipped under it: the detector's bookkeeping allocates.
const raceEnabled = true
