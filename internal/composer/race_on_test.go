//go:build race

package composer

// raceDetector reports a build under the race detector, whose slowdown
// is not the code's: timing gates skip there.
const raceDetector = true
