package nfs

import (
	"errors"
	"io"

	"repro/internal/simnet"
	"repro/internal/vnode"
)

// Resolver recovers a vnode from a handle with no per-client state — the
// property that makes the server stateless.  The UFS adapter and the Ficus
// physical layer both implement it.
type Resolver interface {
	Resolve(handle string) (vnode.Vnode, error)
}

// Server exports a vnode.VFS over a simnet host.  Like the SunOS NFS
// server, it keeps no record of which clients exist or which files they
// have open; every request is self-contained.
type Server struct {
	fs  vnode.VFS
	res Resolver
}

// Serve registers a server for fs on host's default Service port.  res must
// be able to resolve every handle fs's vnodes produce.
func Serve(host *simnet.Host, fs vnode.VFS, res Resolver) *Server {
	return ServeOn(host, Service, fs, res)
}

// ServeOn registers a server on a named service port, letting one host
// export several file systems (one per volume replica it stores).
func ServeOn(host *simnet.Host, service string, fs vnode.VFS, res Resolver) *Server {
	s := &Server{fs: fs, res: res}
	host.HandleRPC(service, s.handle)
	return s
}

func (s *Server) handle(reqBytes []byte) ([]byte, error) {
	req, err := decodeRequest(reqBytes)
	if err != nil {
		resp := respErr(vnode.EINVAL)
		return resp.encode(), nil
	}
	if req.Op == OpRead {
		return s.read(req), nil
	}
	resp := s.dispatch(req)
	return resp.encode(), nil
}

// read answers a read with its data read straight into the reply.
func (s *Server) read(req *Request) []byte {
	v, errResp := s.subject(req)
	if errResp != nil {
		return errResp.encode()
	}
	buf := make([]byte, readReplyRoom+int(req.Len)+readReplyTail)
	n, err := v.ReadAt(buf[readReplyRoom:readReplyRoom+int(req.Len)], req.Off)
	if err != nil && !errors.Is(err, io.EOF) {
		resp := respErr(err)
		return resp.encode()
	}
	return encodeReadReply(buf, n, err != nil)
}

func (s *Server) subject(req *Request) (vnode.Vnode, *Response) {
	v, err := s.res.Resolve(req.Handle)
	if err != nil {
		r := respErr(vnode.ESTALE)
		return nil, &r
	}
	return v, nil
}

func (s *Server) dispatch(req *Request) Response {
	if req.Op == OpRoot {
		root, err := s.fs.Root()
		if err != nil {
			return respErr(err)
		}
		a, err := root.Getattr()
		if err != nil {
			return respErr(err)
		}
		return Response{Handle: root.Handle(), Attr: a}
	}
	v, errResp := s.subject(req)
	if errResp != nil {
		return *errResp
	}
	switch req.Op {
	case OpLookup:
		c, err := v.Lookup(req.Name)
		if err != nil {
			return respErr(err)
		}
		a, err := c.Getattr()
		if err != nil {
			return respErr(err)
		}
		return Response{Handle: c.Handle(), Attr: a}
	case OpCreate:
		c, err := v.Create(req.Name, req.Excl)
		if err != nil {
			return respErr(err)
		}
		a, err := c.Getattr()
		if err != nil {
			return respErr(err)
		}
		return Response{Handle: c.Handle(), Attr: a}
	case OpMkdir:
		c, err := v.Mkdir(req.Name)
		if err != nil {
			return respErr(err)
		}
		a, err := c.Getattr()
		if err != nil {
			return respErr(err)
		}
		return Response{Handle: c.Handle(), Attr: a}
	case OpSymlink:
		return respErr(v.Symlink(req.Name, req.Target))
	case OpReadlink:
		t, err := v.Readlink()
		if err != nil {
			return respErr(err)
		}
		return Response{Str: t}
	case OpWrite:
		n, err := v.WriteAt(req.Data, req.Off)
		if err != nil {
			return respErr(err)
		}
		return Response{N: n}
	case OpTruncate:
		return respErr(v.Truncate(req.Size))
	case OpFsync:
		return respErr(v.Fsync())
	case OpGetattr:
		a, err := v.Getattr()
		if err != nil {
			return respErr(err)
		}
		return Response{Attr: a}
	case OpSetattr:
		var sa vnode.SetAttr
		if req.HasMode {
			m := req.Mode
			sa.Mode = &m
		}
		if req.HasSize {
			z := req.Size
			sa.Size = &z
		}
		return respErr(v.Setattr(sa))
	case OpAccess:
		return respErr(v.Access(req.Mode))
	case OpRemove:
		return respErr(v.Remove(req.Name))
	case OpRmdir:
		return respErr(v.Rmdir(req.Name))
	case OpLink:
		target, err := s.res.Resolve(req.Handle2)
		if err != nil {
			return respErr(vnode.ESTALE)
		}
		return respErr(v.Link(req.Name, target))
	case OpRename:
		dst, err := s.res.Resolve(req.Handle2)
		if err != nil {
			return respErr(vnode.ESTALE)
		}
		return respErr(v.Rename(req.Name, dst, req.Name2))
	case OpReaddir:
		ents, err := v.Readdir()
		if err != nil {
			return respErr(err)
		}
		return Response{Ents: ents}
	default:
		return respErr(vnode.ENOTSUP)
	}
}
