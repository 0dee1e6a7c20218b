// Package rng provides the deterministic pseudo-random numbers used
// throughout the pooled-data simulator.
//
// Every random draw in the reproduction — design builds, signals, noise,
// experiment trials — comes from a xoshiro256** stream (Xoshiro256)
// wrapped in a Rand. Parallel code never shares a stream: it derives one
// per unit of work with DeriveSeed(master, index), a pure function of its
// arguments, so results do not depend on scheduling. A design build, for
// instance, draws query j from the stream seeded DeriveSeed(seed, j).
//
// Graphs built from a seed are pinned (a spec names its graph on every
// node and across restarts), so the generator, its seeding and the
// helpers in Rand must not change their outputs.
//
// None of the types are safe for concurrent use.
package rng
