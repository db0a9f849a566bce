//go:build !race

package experiments

// raceEnabled mirrors the build's -race flag for tests whose
// assertions the race runtime itself perturbs (its instrumentation and
// sync.Pool's deliberate drops change allocation counts).
const raceEnabled = false
