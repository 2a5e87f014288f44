//go:build !race

package storagetest

const RaceEnabled = false
