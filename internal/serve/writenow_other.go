//go:build !unix

package serve

// writeNow has no portable non-blocking write(2) off Unix: nothing is
// written and every response takes the fallback writer.
func (cn *sconn) writeNow(data []byte) (int, error) { return 0, nil }
