//go:build race

package detect

// raceDetectorEnabled mirrors the -race build tag so allocation pins
// can skip: under the detector sync.Pool drops a share of its Puts on
// purpose, so a pooled scratch is sometimes allocated afresh.
const raceDetectorEnabled = true
