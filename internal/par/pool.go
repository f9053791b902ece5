// Package par is an empty stand-in for the worker pool that once drove
// intra-run parallelism; every sizing run is now serial.
//
// Deprecated: kept only so cmd/minflobench, its one remaining user,
// still compiles; it goes with that benchmark's replica.
package par

// Pool is an inert pool handle.
//
// Deprecated: see the package comment.
type Pool struct{}

// New returns an inert pool; workers is ignored and no goroutines
// start.
//
// Deprecated: see the package comment.
func New(workers int) *Pool { return &Pool{} }

// Close does nothing.
//
// Deprecated: see the package comment.
func (p *Pool) Close() {}
