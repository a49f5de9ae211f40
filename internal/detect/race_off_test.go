//go:build !race

package detect

const raceDetectorEnabled = false
