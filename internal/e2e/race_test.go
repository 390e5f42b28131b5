//go:build race

package e2e

// raceBuild reports whether the tests run under the race detector.
const raceBuild = true
