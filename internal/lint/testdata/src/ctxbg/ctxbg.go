// Package ctxbgfix is the fixture corpus for the ctxbg analyzer: a true
// positive for each forbidden constructor, and correct ctx-threading
// code that must stay silent.
package ctxbgfix

import "context"

func bad() context.Context {
	return context.Background() // want "context.Background"
}

func alsoBad() {
	ctx := context.TODO() // want "context.TODO"
	_ = ctx
}

// good threads the caller's context — no finding.
func good(ctx context.Context) (context.Context, context.CancelFunc) {
	return context.WithCancel(ctx)
}
