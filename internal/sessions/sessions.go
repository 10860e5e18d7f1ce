// Package sessions implements the Redfish SessionService: token-based
// authentication for OFMF clients. A session is created by POSTing
// credentials to the session collection; the returned X-Auth-Token
// authenticates subsequent requests until the session expires or its
// resource is deleted.
//
// The stored Session resource is the session: it carries the SHA-256
// of the token, never the token, and the service validates tokens
// against a store.Projection of the collection. A token
// therefore survives a restart and validates on a caught-up replica.
package sessions

import (
	"context"
	"crypto/rand"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"sync"
	"time"

	"ofmf/internal/odata"
	"ofmf/internal/redfish"
	"ofmf/internal/store"
)

// Sentinel errors.
var (
	ErrInvalidCredentials = errors.New("sessions: invalid credentials")
	ErrInvalidToken       = errors.New("sessions: invalid or expired token")
)

// Credentials validates a username/password pair. The OFMF testbed uses a
// static table; production deployments would wire LDAP or similar.
type Credentials func(user, password string) bool

// StaticCredentials builds a Credentials check from a fixed table.
func StaticCredentials(table map[string]string) Credentials {
	return func(user, password string) bool {
		want, ok := table[user]
		return ok && want == password
	}
}

// Session is one authenticated session. Token is set only on the
// session Login returns and Validate was given.
type Session struct {
	ID      string
	User    string
	Token   string
	Expires time.Time
}

// Service manages sessions.
type Service struct {
	st      *store.Store
	coll    odata.ID
	check   Credentials
	timeout time.Duration
	now     func() time.Time

	mu     sync.Mutex
	byHash map[[sha256.Size]byte]Session // the projection: token hash → session
	hashOf map[odata.ID][sha256.Size]byte
}

// Option configures the service.
type Option func(*Service)

// WithClock overrides the time source (tests).
func WithClock(now func() time.Time) Option { return func(s *Service) { s.now = now } }

// NewService creates a session service over the session collection coll
// of st. timeout bounds session lifetime.
func NewService(st *store.Store, coll odata.ID, check Credentials, timeout time.Duration, opts ...Option) *Service {
	s := &Service{
		st:      st,
		coll:    coll,
		check:   check,
		timeout: timeout,
		now:     time.Now,
		byHash:  make(map[[sha256.Size]byte]Session),
		hashOf:  make(map[odata.ID][sha256.Size]byte),
	}
	for _, o := range opts {
		o(s)
	}
	st.Watch(st.Projection(coll, &s.mu, s.apply))
	return s
}

// Login validates credentials and stores a new Session resource under
// the collection's next free id.
func (s *Service) Login(ctx context.Context, user, password string) (*Session, error) {
	if !s.check(user, password) {
		return nil, ErrInvalidCredentials
	}
	tok := make([]byte, 16)
	if _, err := rand.Read(tok); err != nil {
		return nil, fmt.Errorf("sessions: token generation: %w", err)
	}
	created := s.now().UTC().Truncate(time.Second)
	sess := &Session{User: user, Token: hex.EncodeToString(tok), Expires: created.Add(s.timeout)}
	sum := sha256.Sum256([]byte(sess.Token))
	res := redfish.Session{UserName: user, CreatedTime: redfish.Timestamp(created), Oem: &redfish.SessionOem{}}
	res.Oem.OFMF.TokenSHA256 = hex.EncodeToString(sum[:])
	for {
		sess.ID = s.st.NextID(s.coll)
		uri := s.coll.Append(sess.ID)
		res.Resource = odata.NewResource(uri, redfish.TypeSession, "Session "+sess.ID)
		if err := s.st.CreateCtx(ctx, uri, res); !errors.Is(err, store.ErrExists) {
			return sess, err
		}
	}
}

// Validate checks a token and returns the owning session.
func (s *Service) Validate(token string) (*Session, error) {
	sum := sha256.Sum256([]byte(token))
	s.mu.Lock()
	sess, ok := s.byHash[sum]
	s.mu.Unlock()
	if !ok || s.now().After(sess.Expires) {
		return nil, ErrInvalidToken
	}
	sess.Token = token
	return &sess, nil
}

// apply brings the projection to the stored session at id (raw nil:
// deleted). The projection calls it with s.mu held.
func (s *Service) apply(id odata.ID, raw json.RawMessage) {
	if h, ok := s.hashOf[id]; ok {
		delete(s.byHash, h)
		delete(s.hashOf, id)
	}
	var res redfish.Session
	if raw == nil || json.Unmarshal(raw, &res) != nil || res.Oem == nil {
		return
	}
	sum, herr := hex.DecodeString(res.Oem.OFMF.TokenSHA256)
	created, err := time.Parse(time.RFC3339, res.CreatedTime)
	if herr != nil || err != nil || len(sum) != sha256.Size {
		return
	}
	h := [sha256.Size]byte(sum)
	s.hashOf[id] = h
	s.byHash[h] = Session{ID: id.Leaf(), User: res.UserName, Expires: created.Add(s.timeout)}
}
