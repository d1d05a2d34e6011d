// Package repro is a from-scratch Go reproduction of "Creating a National
// Lab Shared Storage Infrastructure" (Wayne Karpoff, YottaYotta Inc.,
// IPDPS 2002): a network-centric storage system built from controller
// blades with coherent pooled caches, demand-mapped virtualization over
// RAID groups, a policy-carrying parallel file system, N-way write
// replication, a security ring for many user groups on one pool, and
// geographically federated sites presenting a single data image.
//
// The root package holds only this comment. The system lives under
// internal/ — start with internal/core, the assembled façade — runnable
// examples under examples/, the experiment tables come from
// cmd/benchrunner, and bench/ is the two-clock benchmark BENCHMARK.json
// holds every change to. See DESIGN.md for the system inventory and
// per-experiment index, and EXPERIMENTS.md for measured results against
// the paper's claims.
package repro
