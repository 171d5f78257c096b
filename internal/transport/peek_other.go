//go:build !unix || aix

package transport

// alive cannot peek a socket on this platform: a connection the peer
// closed while idle shows as an error on its next request.
func (c *conn) alive() bool { return true }
