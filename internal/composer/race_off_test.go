//go:build !race

package composer

const raceDetector = false
