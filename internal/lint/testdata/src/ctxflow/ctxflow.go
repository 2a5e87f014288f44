// Package ctxflow is the fixture corpus for the ctxflow analyzer: a
// function that received a context.Context may not call the bare,
// non-cancellable variant of an API whose Ctx-taking twin exists.
package ctxflow

import (
	"context"
	"time"
)

type Pool struct{}

func (p *Pool) Acquire() int32 { return 0 }
func (p *Pool) AcquireCtx(ctx context.Context) (int32, error) {
	return 0, nil
}

// Wait/WaitCtx is a package-function pair.
func Wait(d time.Duration) {}
func WaitCtx(ctx context.Context, d time.Duration) error {
	return nil
}

// Park has no Ctx twin: calling it with a ctx in hand is fine.
func Park() {}

func badMethod(ctx context.Context, p *Pool) int32 {
	return p.Acquire() // want "drops the ctx this function received; the AcquireCtx variant exists"
}

func badFunc(ctx context.Context) {
	Wait(time.Second) // want "the WaitCtx variant exists"
}

func goodCtxVariant(ctx context.Context, p *Pool) error {
	if _, err := p.AcquireCtx(ctx); err != nil {
		return err
	}
	return WaitCtx(ctx, time.Second)
}

func goodDerivedCtx(ctx context.Context) error {
	c, cancel := context.WithTimeout(ctx, time.Second)
	defer cancel()
	return WaitCtx(c, time.Millisecond)
}

func goodNoTwin(ctx context.Context) {
	Park()
	_ = ctx
}

func goodNoCtxParam(p *Pool) int32 {
	// No ctx received: the bare compat variant is the only option.
	return p.Acquire()
}
