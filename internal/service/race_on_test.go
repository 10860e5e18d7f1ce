//go:build race

package service

// raceDetector: under the race detector sync.Pool drops a quarter of
// what is put into it, so code that pools its scratch space allocates
// at random and an exact allocation count cannot be gated.
const raceDetector = true
