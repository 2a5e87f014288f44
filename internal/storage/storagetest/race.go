//go:build race

package storagetest

// RaceEnabled reports whether the binary was built with -race, under
// which allocation counts are meaningless; allocation pins skip on it.
const RaceEnabled = true
