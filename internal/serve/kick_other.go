//go:build !linux

package serve

// kicker has no epoll set off Linux: readers are woken by Go's network
// poller alone.
type kicker struct{}

func newKicker() *kicker                       { return nil }
func (k *kicker) add(*sconn)                   {}
func (k *kicker) remove(*sconn)                {}
func (k *kicker) poll()                        {}
func (k *kicker) counts() (kicks, polls int64) { return 0, 0 }
func (k *kicker) close()                       {}
