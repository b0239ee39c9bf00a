// Package serve puts the icilk runtime behind a real TCP socket: a
// minimal HTTP/1.1 server whose request handling runs entirely as
// prioritized icilk tasks, turning the paper's three case studies into
// network services measurable under real load (see SERVING.md at the
// repository root for the quick-start).
//
// # Architecture
//
// The goroutine split mirrors the paper's boundary between the runtime
// and the IO daemon. Plain goroutines do only blocking socket work:
//
//   - the acceptor accepts connections;
//   - one reader per connection parses requests and completes the
//     connection's pending request promise (icilk.NewPromise) — real
//     socket readiness driving the same completion path that simulated
//     IO and task completion use;
//   - a writer goroutine exists only for a response the socket would
//     not take in one non-blocking write (larger than the send buffer,
//     a client that stopped reading, a fault-wrapped connection): it
//     writes the remainder and completes the write promise, so the
//     handler task parks (freeing its worker) while its response
//     drains, and a stalled client stalls only its own connection.
//
// Everything else is icilk tasks, the common response write included:
// a handler offers its bytes to the socket itself and, when the kernel
// takes them all, returns without parking. Each connection gets an
// event-loop task at the top priority level that touches the
// next-request future, admits the request to a priority class, and
// spawns the handler at that class's level. Admission maps jserver jobs with jserver.PriorityOf —
// the smallest-work-first order of Section 5.1 — and places proxy cache
// lookups and email operations at the levels their priority
// specifications prescribe.
//
// # Endpoints
//
//	GET /ping                               interactive no-op
//	GET /stats                              counters + scheduler observables
//	GET /jserver?job=matmul|fib|sort|sw     one job at its admitted level
//	GET /proxy?url=U                        cache lookup; miss schedules a fetch
//	GET /email?op=send|sort|print&user=N    mailbox operations
//
// # Load generation
//
// RunLoad drives a server with open-loop Poisson traffic: arrival times
// are fixed by the generator regardless of how the server keeps up, so
// queueing delay counts against latency and tail percentiles stay honest
// under overload. Results aggregate per priority class (read back from
// the X-Class/X-Priority response headers) into p50/p95/p99 tables — the
// measurement the responsiveness bound is checked against.
package serve
