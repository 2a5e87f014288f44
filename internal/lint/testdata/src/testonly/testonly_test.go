// Package testonly_test has no build files, only external tests, like
// a directory of Example functions; the loader must still load it.
package testonly_test

import "fmt"

func Example() {
	fmt.Println("ok")
	// Output: ok
}
