package nfs

import (
	"errors"
	"io"
	"strings"
	"sync"

	"repro/internal/lru"
	"repro/internal/simnet"
	"repro/internal/vnode"
)

// ClientOptions tunes the client-side caches.  The defaults mirror SunOS:
// caching on, moderately sized, expiry by age.  The paper complains that
// these caches are "not fully controllable (e.g., there is no user-level
// way to disable all caching)"; as implementors we grant ourselves the
// switch the 1990 user lacked, because experiment ablations need it.
type ClientOptions struct {
	// DisableCaches turns the attribute and lookup caches off entirely.
	DisableCaches bool
	// AttrTTLOps is how many client operations an attribute cache entry
	// stays fresh for (default 32).  NFS used wall-clock seconds; an
	// operation count is the deterministic equivalent.
	AttrTTLOps uint64
}

func (o *ClientOptions) withDefaults() ClientOptions {
	v := ClientOptions{AttrTTLOps: 32}
	if o == nil {
		return v
	}
	if o.AttrTTLOps > 0 {
		v.AttrTTLOps = o.AttrTTLOps
	}
	v.DisableCaches = o.DisableCaches
	return v
}

// Client is a vnode.VFS whose operations travel as RPCs to an NFS server.
// From the stack's point of view it is just another layer (paper Fig. 2).
type Client struct {
	host    *simnet.Host
	server  simnet.Addr
	service string
	opts    ClientOptions

	mu    sync.Mutex
	clock uint64                          // client operation counter, drives cache expiry
	root  string                          // the server's root handle, once it has been asked for
	attrs *lru.Cache[string, attrEntry]   // by handle
	names *lru.Cache[string, lookupEntry] // by handle + "/" + name
}

type attrEntry struct {
	attr  vnode.Attr
	stamp uint64
}

type lookupEntry struct {
	handle string
	stamp  uint64
}

// Dial creates a client on host talking to the default service at addr.
func Dial(host *simnet.Host, addr simnet.Addr, opts *ClientOptions) *Client {
	return DialService(host, addr, Service, opts)
}

// DialService creates a client for a named service port at addr.
func DialService(host *simnet.Host, addr simnet.Addr, service string, opts *ClientOptions) *Client {
	o := opts.withDefaults()
	return &Client{
		host:    host,
		server:  addr,
		service: service,
		opts:    o,
		attrs:   lru.New[string, attrEntry](cacheEntries),
		names:   lru.New[string, lookupEntry](cacheEntries),
	}
}

// FlushCaches drops all cached attributes and lookups.
func (c *Client) FlushCaches() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.attrs.Flush()
	c.names.Flush()
	c.root = ""
}

func (c *Client) tick() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.clock++
	return c.clock
}

func (c *Client) fresh(stamp uint64) bool {
	return c.clock-stamp < c.opts.AttrTTLOps
}

// call performs one RPC, mapping transport failures to EUNAVAIL so the
// logical layer can treat "server partitioned away" as "replica
// inaccessible" and fail over.
func (c *Client) call(req *Request) (*Response, error) {
	respBytes, err := c.host.Call(c.server, c.service, req.encode())
	if err != nil {
		if errors.Is(err, simnet.ErrUnreachable) || errors.Is(err, simnet.ErrNoHost) {
			return nil, vnode.EUNAVAIL
		}
		return nil, vnode.EIO
	}
	resp, err := decodeResponse(respBytes)
	if err != nil {
		return nil, vnode.EIO
	}
	if resp.Errno != 0 {
		return nil, errnoOf(resp.Errno)
	}
	return resp, nil
}

// Root fetches the server's root vnode, once: the handle never changes and holds
// no state at the server (one that has gone answers the next RPC with EUNAVAIL).
func (c *Client) Root() (vnode.Vnode, error) {
	c.tick()
	c.mu.Lock()
	h := c.root
	c.mu.Unlock()
	if h != "" {
		return &cvnode{c: c, handle: h}, nil
	}
	resp, err := c.call(&Request{Op: OpRoot})
	if err != nil {
		return nil, err
	}
	c.cacheAttr(resp.Handle, resp.Attr)
	if !c.opts.DisableCaches {
		c.mu.Lock()
		c.root = resp.Handle
		c.mu.Unlock()
	}
	return &cvnode{c: c, handle: resp.Handle}, nil
}

// Sync is a no-op: the server's substrate is write-through and the client
// caches hold no dirty data.
func (c *Client) Sync() error { return nil }

// Server returns the server address (used in graft-point entries, §4.3).
func (c *Client) Server() simnet.Addr { return c.server }

func (c *Client) cacheAttr(handle string, a vnode.Attr) {
	if c.opts.DisableCaches {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.attrs.Put(handle, attrEntry{attr: a, stamp: c.clock})
}

func (c *Client) cachedAttr(handle string) (vnode.Attr, bool) {
	if c.opts.DisableCaches {
		return vnode.Attr{}, false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if e, ok := c.attrs.Get(handle); ok {
		if c.fresh(e.stamp) {
			return e.attr, true
		}
		c.attrs.Drop(handle)
	}
	return vnode.Attr{}, false
}

func (c *Client) invalidateAttr(handle string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.attrs.Drop(handle)
}

func (c *Client) cacheLookup(dir, name, handle string) {
	if c.opts.DisableCaches {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.names.Put(dir+"/"+name, lookupEntry{handle: handle, stamp: c.clock})
}

func (c *Client) cachedLookup(dir, name string) (string, bool) {
	if c.opts.DisableCaches {
		return "", false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if e, ok := c.names.Get(dir + "/" + name); ok {
		if c.fresh(e.stamp) {
			return e.handle, true
		}
		c.names.Drop(dir + "/" + name)
	}
	return "", false
}

func (c *Client) invalidateLookup(dir, name string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.names.Drop(dir + "/" + name)
}

// cvnode is a client-side vnode: a handle plus the client it belongs to.
type cvnode struct {
	c      *Client
	handle string
}

func (v *cvnode) Handle() string { return v.handle }

// Lookup answers a plain name from the name cache when it can; one that
// carries an open or a close (§2.3) exists to be seen by the server.
func (v *cvnode) Lookup(name string) (vnode.Vnode, error) {
	v.c.tick()
	plain := !strings.HasPrefix(name, vnode.EncodedLookupPrefix)
	if plain {
		if h, ok := v.c.cachedLookup(v.handle, name); ok {
			return &cvnode{c: v.c, handle: h}, nil
		}
	}
	resp, err := v.c.call(&Request{Op: OpLookup, Handle: v.handle, Name: name})
	if err != nil {
		return nil, err
	}
	if plain {
		v.c.cacheLookup(v.handle, name, resp.Handle)
	}
	v.c.cacheAttr(resp.Handle, resp.Attr)
	return &cvnode{c: v.c, handle: resp.Handle}, nil
}

func (v *cvnode) Create(name string, excl bool) (vnode.Vnode, error) {
	v.c.tick()
	resp, err := v.c.call(&Request{Op: OpCreate, Handle: v.handle, Name: name, Excl: excl})
	if err != nil {
		return nil, err
	}
	v.c.cacheLookup(v.handle, name, resp.Handle)
	v.c.cacheAttr(resp.Handle, resp.Attr)
	v.c.invalidateAttr(v.handle) // directory changed
	return &cvnode{c: v.c, handle: resp.Handle}, nil
}

func (v *cvnode) Mkdir(name string) (vnode.Vnode, error) {
	v.c.tick()
	resp, err := v.c.call(&Request{Op: OpMkdir, Handle: v.handle, Name: name})
	if err != nil {
		return nil, err
	}
	v.c.cacheLookup(v.handle, name, resp.Handle)
	v.c.cacheAttr(resp.Handle, resp.Attr)
	v.c.invalidateAttr(v.handle)
	return &cvnode{c: v.c, handle: resp.Handle}, nil
}

func (v *cvnode) Symlink(name, target string) error {
	v.c.tick()
	_, err := v.c.call(&Request{Op: OpSymlink, Handle: v.handle, Name: name, Target: target})
	v.c.invalidateAttr(v.handle)
	return err
}

func (v *cvnode) Readlink() (string, error) {
	v.c.tick()
	resp, err := v.c.call(&Request{Op: OpReadlink, Handle: v.handle})
	if err != nil {
		return "", err
	}
	return resp.Str, nil
}

// Open is swallowed: the NFS protocol has no such operation (paper §2.2).
// The call succeeds locally and the server never hears about it.
func (v *cvnode) Open(vnode.OpenFlags) error { return nil }

// Close is likewise swallowed.
func (v *cvnode) Close(vnode.OpenFlags) error { return nil }

// ReadAt asks for at most maxRead bytes a request, which the server refuses
// above, until p is full, a reply comes back short, or one reaches the end.
func (v *cvnode) ReadAt(p []byte, off int64) (int, error) {
	v.c.tick()
	n := 0
	for {
		ask := min(len(p)-n, maxRead)
		resp, err := v.c.call(&Request{Op: OpRead, Handle: v.handle, Off: off + int64(n), Len: uint32(ask)})
		if err != nil {
			return n, err
		}
		n += copy(p[n:], resp.Data)
		if resp.EOF {
			return n, io.EOF
		}
		if n == len(p) || len(resp.Data) < ask {
			return n, nil
		}
	}
}

func (v *cvnode) WriteAt(p []byte, off int64) (int, error) {
	v.c.tick()
	resp, err := v.c.call(&Request{Op: OpWrite, Handle: v.handle, Off: off, Data: p})
	if err != nil {
		return 0, err
	}
	v.c.invalidateAttr(v.handle)
	return resp.N, nil
}

func (v *cvnode) Truncate(size uint64) error {
	v.c.tick()
	_, err := v.c.call(&Request{Op: OpTruncate, Handle: v.handle, Size: size})
	v.c.invalidateAttr(v.handle)
	return err
}

func (v *cvnode) Fsync() error {
	v.c.tick()
	_, err := v.c.call(&Request{Op: OpFsync, Handle: v.handle})
	return err
}

func (v *cvnode) Getattr() (vnode.Attr, error) {
	v.c.tick()
	if a, ok := v.c.cachedAttr(v.handle); ok {
		return a, nil
	}
	resp, err := v.c.call(&Request{Op: OpGetattr, Handle: v.handle})
	if err != nil {
		return vnode.Attr{}, err
	}
	v.c.cacheAttr(v.handle, resp.Attr)
	return resp.Attr, nil
}

func (v *cvnode) Setattr(sa vnode.SetAttr) error {
	v.c.tick()
	req := &Request{Op: OpSetattr, Handle: v.handle}
	if sa.Mode != nil {
		req.HasMode, req.Mode = true, *sa.Mode
	}
	if sa.Size != nil {
		req.HasSize, req.Size = true, *sa.Size
	}
	_, err := v.c.call(req)
	v.c.invalidateAttr(v.handle)
	return err
}

func (v *cvnode) Access(mode uint16) error {
	v.c.tick()
	_, err := v.c.call(&Request{Op: OpAccess, Handle: v.handle, Mode: mode})
	return err
}

func (v *cvnode) Remove(name string) error {
	v.c.tick()
	_, err := v.c.call(&Request{Op: OpRemove, Handle: v.handle, Name: name})
	v.c.invalidateLookup(v.handle, name)
	v.c.invalidateAttr(v.handle)
	return err
}

func (v *cvnode) Rmdir(name string) error {
	v.c.tick()
	_, err := v.c.call(&Request{Op: OpRmdir, Handle: v.handle, Name: name})
	v.c.invalidateLookup(v.handle, name)
	v.c.invalidateAttr(v.handle)
	return err
}

func (v *cvnode) Link(name string, target vnode.Vnode) error {
	v.c.tick()
	t, ok := target.(*cvnode)
	if !ok || t.c != v.c {
		return vnode.EXDEV
	}
	_, err := v.c.call(&Request{Op: OpLink, Handle: v.handle, Name: name, Handle2: t.handle})
	v.c.invalidateAttr(v.handle)
	v.c.invalidateAttr(t.handle)
	return err
}

func (v *cvnode) Rename(oldName string, dstDir vnode.Vnode, newName string) error {
	v.c.tick()
	d, ok := dstDir.(*cvnode)
	if !ok || d.c != v.c {
		return vnode.EXDEV
	}
	_, err := v.c.call(&Request{Op: OpRename, Handle: v.handle, Name: oldName, Handle2: d.handle, Name2: newName})
	v.c.invalidateLookup(v.handle, oldName)
	v.c.invalidateLookup(d.handle, newName)
	v.c.invalidateAttr(v.handle)
	v.c.invalidateAttr(d.handle)
	return err
}

func (v *cvnode) Readdir() ([]vnode.Dirent, error) {
	v.c.tick()
	resp, err := v.c.call(&Request{Op: OpReaddir, Handle: v.handle})
	if err != nil {
		return nil, err
	}
	return resp.Ents, nil
}
