//go:build unix && !aix

package transport

import "syscall"

// alive reports whether an idle connection can carry a request: a
// non-blocking peek finds the peer has neither closed it nor sent
// anything unasked. A connection that cannot be peeked counts as alive.
func (c *conn) alive() bool {
	sc, ok := c.nc.(syscall.Conn)
	if !ok {
		return true
	}
	rc, err := sc.SyscallConn()
	if err != nil {
		return false
	}
	var perr error
	err = rc.Read(func(fd uintptr) bool {
		var b [1]byte
		_, _, perr = syscall.Recvfrom(int(fd), b[:], syscall.MSG_PEEK|syscall.MSG_DONTWAIT)
		return true
	})
	return err == nil && (perr == syscall.EAGAIN || perr == syscall.EWOULDBLOCK)
}
