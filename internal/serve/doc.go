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
//   - one reader per connection parses requests and dispatches each one
//     the moment it is parsed: it admits the request to a priority class
//     (atomics only) and spawns the handler at that class's level
//     (icilk.GoSelf) — real socket readiness handed straight to the
//     scheduler, as I-Cilk's IO daemon hands it a completed read. A
//     reader parks in Go's netpoller, which Go polls only when a P is
//     idle or every 10 ms; when the workers keep every P busy, they
//     check the sockets themselves at task boundaries (one epoll_wait
//     per 20 µs at most, Linux only) and kick a blocked reader onto
//     the polling worker's P;
//   - a writer goroutine exists only for a response the socket would
//     not take in one non-blocking write (larger than the send buffer,
//     a client that stopped reading, a fault-wrapped connection): it
//     writes the remainder and then the responses ready behind it,
//     while the handler task has long returned, so a stalled client
//     stalls only its own connection.
//
// Everything else is icilk tasks, the common response write included:
// a handler offers its bytes to the socket itself and, when the kernel
// takes them all, returns without parking. Pipelined responses leave in
// request order through a per-connection reorder buffer: a handler that
// finishes before an earlier request's leaves its bytes there and
// returns, and whoever writes that earlier response writes them too, so
// no task waits on another request. Admission maps jserver jobs
// with jserver.PriorityOf — the smallest-work-first order of Section
// 5.1 — and places proxy cache lookups and email operations at the
// levels their priority specifications prescribe.
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
