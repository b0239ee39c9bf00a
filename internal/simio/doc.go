// Package simio is the simulated I/O substrate standing in for the Linux
// sockets and files of the paper's evaluation (ARCHITECTURE.md, "The IO
// completion path", shows where its clock futures enter the runtime).
// It provides latency-hiding I/O futures with controllable
// latency distributions and Poisson client-request generators, which is
// everything the evaluation workloads need from real I/O: latency to hide
// and an arrival process to serve.
//
// Simulated devices build their futures on icilk.IO, whose latency is an
// entry in the runtime's clock: a worker completes the future at its
// first task boundary or Checkpoint after the latency has passed, or the
// clock's fallback Go timer does when every worker is parked. Real
// sockets are served by internal/serve, whose readers spawn each
// request's handler as the request arrives — a different event source
// feeding the same scheduler. The two substrates coexist deliberately: simio keeps the evaluation workloads
// reproducible and deterministic, internal/serve measures the same
// runtime against genuine network traffic.
//
// Example (a simulated read whose latency the runtime hides):
//
//	dev := simio.NewDevice("disk", simio.Latency{Base: time.Millisecond}, 1)
//	icilk.Go(rt, nil, 1, "reader", func(c *icilk.Ctx) string {
//		return simio.Read(rt, dev, 1, func() string { return "block" }).Touch(c)
//	})
package simio
