package export

import (
	"fmt"

	"repro/internal/pfs"
	"repro/internal/security"
	"repro/internal/sim"
	"repro/internal/simnet"
)

// The streaming gateway is the paper's RTSP example (§8): media-style
// sessions that pace file content from storage onto the network at a
// target bitrate, with pause/resume — served directly by the blades.

// StreamOpen starts a session.
type StreamOpen struct {
	Token string
	Path  string
	// BitrateBps paces delivery (0 = as fast as the network allows).
	BitrateBps int64
	// ChunkBytes is the delivery unit (default 64 KiB).
	ChunkBytes int
}

// StreamOpenResp returns the session handle.
type StreamOpenResp struct {
	Session int64
	Size    int64
	Err     string
}

// StreamCtl pauses, resumes or tears down a session.
type StreamCtl struct {
	Session int64
	Op      string // "pause", "resume", "teardown"
}

// StreamCtlResp acknowledges control operations.
type StreamCtlResp struct{ Err string }

// StreamChunk is one delivered piece of the stream.
type StreamChunk struct {
	Session int64
	Seq     int64
	Off     int64
	Data    []byte
	// Last marks the final chunk of the file.
	Last bool
}

type streamSession struct {
	path    string
	off     int64
	size    int64
	seq     int64
	client  simnet.Addr
	paused  bool
	dead    bool
	bitrate int64
	chunk   int
}

// StreamGateway serves paced media sessions over a parallel file system.
type StreamGateway struct {
	fs       *pfs.FS
	auth     *security.Authority
	conn     *simnet.Conn
	sessions map[int64]*streamSession
	nextID   int64
	// Served counts delivered chunks.
	Served int64
}

// NewStreamGateway attaches the streaming service at addr.
func NewStreamGateway(net *simnet.Network, addr simnet.Addr, fs *pfs.FS, auth *security.Authority) *StreamGateway {
	g := &StreamGateway{
		fs: fs, auth: auth,
		conn:     simnet.NewConn(net, addr),
		sessions: make(map[int64]*streamSession),
	}
	g.conn.Register("rtsp.open", g.handleOpen)
	g.conn.Register("rtsp.ctl", g.handleCtl)
	return g
}

func (g *StreamGateway) handleOpen(p *sim.Proc, from simnet.Addr, args any) (any, int) {
	req := args.(StreamOpen)
	if _, err := g.auth.Authenticate(req.Token); err != nil {
		return StreamOpenResp{Err: err.Error()}, ctrlSize
	}
	ino, err := g.fs.Stat(req.Path)
	if err != nil {
		return StreamOpenResp{Err: err.Error()}, ctrlSize
	}
	chunk := req.ChunkBytes
	if chunk <= 0 {
		chunk = 64 << 10
	}
	g.nextID++
	s := &streamSession{
		path: req.Path, size: ino.Size, client: from,
		bitrate: req.BitrateBps, chunk: chunk,
	}
	g.sessions[g.nextID] = s
	id := g.nextID
	g.conn.Network().Kernel().Go(fmt.Sprintf("rtsp.session%d", id), func(q *sim.Proc) {
		g.pump(q, id, s)
	})
	return StreamOpenResp{Session: id, Size: ino.Size}, ctrlSize
}

// pump delivers the file as paced chunks until done or torn down.
func (g *StreamGateway) pump(p *sim.Proc, id int64, s *streamSession) {
	k := g.conn.Network().Kernel()
	buf := make([]byte, s.chunk)
	for !s.dead && s.off < s.size {
		if s.paused {
			p.Sleep(5 * sim.Millisecond)
			continue
		}
		n, err := g.fs.ReadAt(p, s.path, s.off, buf)
		if err != nil || n == 0 {
			break
		}
		last := s.off+int64(n) >= s.size
		g.conn.Cast(p, s.client, "rtsp.chunk", StreamChunk{
			Session: id, Seq: s.seq, Off: s.off,
			Data: append([]byte(nil), buf[:n]...), Last: last,
		}, ctrlSize+n)
		g.Served++
		s.seq++
		s.off += int64(n)
		if s.bitrate > 0 {
			p.Sleep(sim.Duration(float64(n*8) / float64(s.bitrate) * float64(sim.Second)))
		}
	}
	_ = k
	delete(g.sessions, id)
}

func (g *StreamGateway) handleCtl(p *sim.Proc, from simnet.Addr, args any) (any, int) {
	req := args.(StreamCtl)
	s, ok := g.sessions[req.Session]
	if !ok {
		return StreamCtlResp{Err: "no such session"}, ctrlSize
	}
	switch req.Op {
	case "pause":
		s.paused = true
	case "resume":
		s.paused = false
	case "teardown":
		s.dead = true
	default:
		return StreamCtlResp{Err: "unknown op " + req.Op}, ctrlSize
	}
	return StreamCtlResp{}, ctrlSize
}

// Sessions reports the live session count.
func (g *StreamGateway) Sessions() int { return len(g.sessions) }

// StreamClient collects chunks on the host side.
type StreamClient struct {
	Conn   *simnet.Conn
	Chunks []StreamChunk
	// Done is set when the Last chunk arrives.
	Done bool
}

// NewStreamClient attaches a chunk receiver at addr.
func NewStreamClient(net *simnet.Network, addr simnet.Addr) *StreamClient {
	c := &StreamClient{Conn: simnet.NewConn(net, addr)}
	c.Conn.Register("rtsp.chunk", func(p *sim.Proc, from simnet.Addr, args any) (any, int) {
		ch := args.(StreamChunk)
		c.Chunks = append(c.Chunks, ch)
		if ch.Last {
			c.Done = true
		}
		return nil, 0
	})
	return c
}

// Open starts a session against the gateway at target.
func (c *StreamClient) Open(p *sim.Proc, target simnet.Addr, req StreamOpen) (StreamOpenResp, error) {
	raw, err := c.Conn.CallTimeout(p, target, "rtsp.open", req, ctrlSize, 60*sim.Second)
	if err != nil {
		return StreamOpenResp{}, err
	}
	return raw.(StreamOpenResp), nil
}

// Ctl sends a control operation.
func (c *StreamClient) Ctl(p *sim.Proc, target simnet.Addr, session int64, op string) error {
	raw, err := c.Conn.CallTimeout(p, target, "rtsp.ctl", StreamCtl{Session: session, Op: op}, ctrlSize, 60*sim.Second)
	if err != nil {
		return err
	}
	if resp := raw.(StreamCtlResp); resp.Err != "" {
		return fmt.Errorf("export: %s", resp.Err)
	}
	return nil
}

// Reassemble returns the received bytes in offset order.
func (c *StreamClient) Reassemble() []byte {
	var total int64
	for _, ch := range c.Chunks {
		if end := ch.Off + int64(len(ch.Data)); end > total {
			total = end
		}
	}
	out := make([]byte, total)
	for _, ch := range c.Chunks {
		copy(out[ch.Off:], ch.Data)
	}
	return out
}
