package seccomm

import (
	"crypto/rand"
	"errors"
	"fmt"
	"io"

	"eventopt/internal/ciphers"
	"eventopt/internal/event"
)

// Wire packet types of the session layer.
const (
	pktKeyExchange byte = 0x01
	pktData        byte = 0x02
)

// SessionConfig parameterizes a key-distributed connection: the
// non-key micro-protocols are chosen here, while the DES session key and
// IV travel from client to server inside an RSA-encrypted key-exchange
// packet — the ClientKeyDistribution micro-protocol of paper Fig. 2.
type SessionConfig struct {
	// XORKey, MACKey: as in Config (optional).
	XORKey []byte
	MACKey []byte
	// Rand supplies session-key material (nil for crypto/rand).
	Rand io.Reader
}

// Server is the responding side of ClientKeyDistribution. It owns a
// small event system with two session events: openSession, raised when a
// key-exchange packet arrives (its handler decrypts the session key and
// instantiates the data endpoint), and keyMiss, raised when a data
// packet arrives before any session exists (Fig. 2's keyMiss event).
type Server struct {
	Sys *event.System

	OpenSession, KeyMiss, SessionOpened event.ID

	priv    *ciphers.RSAKey
	cfg     SessionConfig
	ep      *Endpoint
	send    func([]byte)
	deliver func([]byte)

	// KeyMisses counts data packets that arrived without a session.
	KeyMisses int
	// Sessions counts successfully opened sessions.
	Sessions int
}

// NewServer creates a server around an RSA private key.
func NewServer(priv *ciphers.RSAKey, cfg SessionConfig, opts ...event.Option) (*Server, error) {
	if priv == nil || priv.D == nil {
		return nil, errors.New("seccomm: server requires an RSA private key")
	}
	s := &Server{Sys: event.New(opts...), priv: priv, cfg: cfg}
	s.OpenSession = s.Sys.Define("openSession")
	s.KeyMiss = s.Sys.Define("keyMiss")
	s.SessionOpened = s.Sys.Define("sessionOpened")

	s.Sys.Bind(s.OpenSession, "open_session", s.onOpenSession, event.WithParams("blob"))
	s.Sys.Bind(s.KeyMiss, "key_miss", func(*event.Ctx) { s.KeyMisses++ })
	s.Sys.Bind(s.SessionOpened, "session_opened", func(*event.Ctx) { s.Sessions++ })
	return s, nil
}

// onOpenSession handles a key-exchange packet: decrypt the session key
// material and instantiate the data endpoint.
func (s *Server) onOpenSession(c *event.Ctx) {
	blob := c.Args.Bytes("blob")
	material, err := s.priv.Decrypt(blob)
	if err != nil || len(material) != ciphers.DESBlockSize*2 {
		c.Halt()
		return
	}
	ep, err := New(Config{
		DESKey: material[:ciphers.DESBlockSize],
		IV:     material[ciphers.DESBlockSize:],
		XORKey: s.cfg.XORKey,
		MACKey: s.cfg.MACKey,
	})
	if err != nil {
		c.Halt()
		return
	}
	ep.OnDeliver(func(m []byte) {
		if s.deliver != nil {
			s.deliver(m)
		}
	})
	ep.OnSend(func(p []byte) {
		if s.send != nil {
			s.send(append([]byte{pktData}, p...))
		}
	})
	s.ep = ep
	c.Raise(s.SessionOpened)
}

// Endpoint returns the session's data endpoint (nil before a session is
// established); expose it to the optimizer after the session settles.
func (s *Server) Endpoint() *Endpoint { return s.ep }

// OnDeliver installs the application receive callback.
func (s *Server) OnDeliver(fn func([]byte)) { s.deliver = fn }

// OnSend installs the link-transmit callback for server-to-client data.
func (s *Server) OnSend(fn func([]byte)) { s.send = fn }

// HandlePacket routes one packet from the link.
func (s *Server) HandlePacket(pkt []byte) error {
	if len(pkt) == 0 {
		return errors.New("seccomm: empty packet")
	}
	switch pkt[0] {
	case pktKeyExchange:
		return s.Sys.Raise(s.OpenSession, event.Bytes("blob", pkt[1:]))
	case pktData:
		if s.ep == nil {
			return s.Sys.Raise(s.KeyMiss)
		}
		s.ep.HandlePacket(pkt[1:])
		return nil
	default:
		return fmt.Errorf("seccomm: unknown packet type %#x", pkt[0])
	}
}

// Push sends application data to the client over the established session.
func (s *Server) Push(msg []byte) error {
	if s.ep == nil {
		return errors.New("seccomm: no session")
	}
	s.ep.Push(msg)
	return nil
}

// Client is the initiating side of ClientKeyDistribution: Open generates
// fresh DES session material, transports it to the server under the
// server's RSA public key, and instantiates the local data endpoint.
type Client struct {
	pub  *ciphers.RSAKey
	cfg  SessionConfig
	ep   *Endpoint
	send func([]byte)
}

// NewClient creates a client trusting the server's public key.
func NewClient(pub *ciphers.RSAKey, cfg SessionConfig) (*Client, error) {
	if pub == nil {
		return nil, errors.New("seccomm: client requires the server public key")
	}
	return &Client{pub: pub, cfg: cfg}, nil
}

// OnSend installs the link-transmit callback.
func (c *Client) OnSend(fn func([]byte)) { c.send = fn }

// Endpoint returns the session's data endpoint (nil before Open).
func (c *Client) Endpoint() *Endpoint { return c.ep }

// Open establishes the session: generate key material, send the
// key-exchange packet, and build the local endpoint.
func (c *Client) Open() error {
	rng := c.cfg.Rand
	if rng == nil {
		rng = rand.Reader
	}
	material := make([]byte, ciphers.DESBlockSize*2)
	if _, err := io.ReadFull(rng, material); err != nil {
		return err
	}
	blob, err := c.pub.Encrypt(rng, material)
	if err != nil {
		return err
	}
	ep, err := New(Config{
		DESKey: material[:ciphers.DESBlockSize],
		IV:     material[ciphers.DESBlockSize:],
		XORKey: c.cfg.XORKey,
		MACKey: c.cfg.MACKey,
	})
	if err != nil {
		return err
	}
	ep.OnSend(func(p []byte) {
		if c.send != nil {
			c.send(append([]byte{pktData}, p...))
		}
	})
	c.ep = ep
	if c.send != nil {
		c.send(append([]byte{pktKeyExchange}, blob...))
	}
	return nil
}

// Push sends application data over the established session.
func (c *Client) Push(msg []byte) error {
	if c.ep == nil {
		return errors.New("seccomm: session not open")
	}
	c.ep.Push(msg)
	return nil
}

// HandlePacket routes one packet from the link (server-to-client data).
func (c *Client) HandlePacket(pkt []byte) error {
	if len(pkt) == 0 || pkt[0] != pktData {
		return errors.New("seccomm: unexpected packet")
	}
	if c.ep == nil {
		return errors.New("seccomm: session not open")
	}
	c.ep.HandlePacket(pkt[1:])
	return nil
}

// OnDeliver installs the application receive callback.
func (c *Client) OnDeliver(fn func([]byte)) {
	if c.ep != nil {
		c.ep.OnDeliver(fn)
	}
}
