// Package ctxflowtest exercises the ctxflow analyzer: detached
// contexts, goroutines with no termination path, and blocking or
// spawning functions that cannot observe cancellation are flagged;
// audited roots and context-threaded code stay quiet.
package ctxflowtest

import (
	"context"
	"net/http"
)

var done = make(chan struct{})

// DetachedContexts creates contexts no drain deadline can reach.
func DetachedContexts(ctx context.Context) {
	a := context.Background() // want "context.Background starts a detached context"
	b := context.TODO()       // want "context.TODO starts a detached context"
	_, _ = a, b
	_ = ctx
}

// AuditedRoot is the sanctioned pattern: a justified ctx-ok on the
// root that owns the lifecycle.
func AuditedRoot(ctx context.Context) context.Context {
	//costsense:ctx-ok test root: the cancellation source is created right here
	return context.Background()
}

// Immortal spawns a goroutine with nothing to end it.
//
//costsense:ctx-ok test scaffolding: rule 3 fires separately below
func Immortal() {
	go func() { // want "goroutine has no structurally-identifiable termination path"
		for {
			compute()
		}
	}()
}

// TiedToCtx's goroutine references the context: it can see
// cancellation.
func TiedToCtx(ctx context.Context) {
	go func() {
		<-ctx.Done()
	}()
}

// TiedToRange ends when the producer closes the channel.
func TiedToRange(ctx context.Context, ch chan int) {
	go func() {
		for v := range ch {
			_ = v
		}
	}()
}

// TiedToRecv ends when the peer signals.
func TiedToRecv(ctx context.Context) {
	go func() {
		<-done
	}()
}

// worker takes a context, so spawning it by name is tied.
func worker(ctx context.Context) {
	<-ctx.Done()
}

// SpawnNamed passes the context to a named callee.
func SpawnNamed(ctx context.Context) {
	go worker(ctx)
}

// compute neither blocks nor spawns: no context needed.
func compute() int {
	return 42
}

// waits blocks on a channel but has no way to observe cancellation.
func waits(ch chan int) int { // want "waits blocks on channels or timers but cannot observe cancellation"
	return <-ch
}

// spawner spawns but cannot observe cancellation; the spawned callee
// takes no context either, so both rules fire.
func spawner() { // want "spawner spawns a goroutine but cannot observe cancellation"
	go compute() // want "goroutine has no structurally-identifiable termination path"
}

// WaitsWithCtx blocks but holds the context: shutdown can reach it.
func WaitsWithCtx(ctx context.Context, ch chan int) int {
	select {
	case v := <-ch:
		return v
	case <-ctx.Done():
		return 0
	}
}

// handler blocks through its request, whose Context carries
// cancellation.
func handler(w http.ResponseWriter, r *http.Request) {
	<-r.Context().Done()
}

// carrier holds a context in its receiver: its methods can observe
// cancellation.
type carrier struct {
	ctx context.Context
}

// set is a generic carrier: its methods are reached through
// instantiations (set[T] inside a generic caller), which must resolve
// to the declarations the summaries are keyed by.
type set[T any] struct {
	ctx  context.Context
	vals chan T
}

// loop blocks, excused by the receiver's context field.
func (s *set[T]) loop() {
	select {
	case <-s.vals:
	case <-s.ctx.Done():
	}
}

// startSet spawns a method of a generic type by name: tied, because the
// callee's receiver carries the context.
func startSet[T any](ctx context.Context) *set[T] {
	s := &set[T]{ctx: ctx, vals: make(chan T)}
	go s.loop()
	return s
}

// wait blocks, excused by the receiver's context field.
func (c *carrier) wait(ch chan int) int {
	select {
	case v := <-ch:
		return v
	case <-c.ctx.Done():
		return 0
	}
}
