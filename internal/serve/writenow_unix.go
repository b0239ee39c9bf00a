//go:build unix

package serve

import "syscall"

// writeNow makes one non-blocking write attempt on the connection's
// file descriptor and reports how many bytes the kernel took. A full
// send buffer (EAGAIN) or a connection with no RawConn is (0, nil) —
// nothing written, nothing wrong; err is a real socket error or an
// expired/closed descriptor. The callback always returns true, so
// RawConn.Write never waits for writability: the caller is an icilk
// worker.
func (cn *sconn) writeNow(data []byte) (n int, err error) {
	if cn.raw == nil {
		return 0, nil
	}
	var werr error
	err = cn.raw.Write(func(fd uintptr) bool {
		for {
			n, werr = syscall.Write(int(fd), data)
			if werr != syscall.EINTR {
				return true
			}
		}
	})
	if err == nil && werr != nil && werr != syscall.EAGAIN {
		err = werr
	}
	return max(n, 0), err
}
