package sessions

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"ofmf/internal/odata"
	"ofmf/internal/store"
	"ofmf/internal/store/storetest"
)

const coll = odata.ID("/redfish/v1/SessionService/Sessions")

func newTestService(now *time.Time) *Service {
	check := StaticCredentials(map[string]string{"admin": "secret"})
	st := store.New()
	st.RegisterCollection(coll, "#SessionCollection.SessionCollection", "Sessions")
	return NewService(st, coll, check, time.Hour, WithClock(func() time.Time { return *now }))
}

// logout deletes the session's resource, which is all a logout is.
func logout(svc *Service, id string) error {
	return svc.st.Delete(coll.Append(id))
}

func TestLoginValidate(t *testing.T) {
	now := time.Date(2023, 1, 1, 0, 0, 0, 0, time.UTC)
	svc := newTestService(&now)
	sess, err := svc.Login(context.Background(), "admin", "secret")
	if err != nil {
		t.Fatal(err)
	}
	if sess.Token == "" || sess.ID == "" {
		t.Fatalf("session = %+v", sess)
	}
	got, err := svc.Validate(sess.Token)
	if err != nil {
		t.Fatal(err)
	}
	if got.User != "admin" {
		t.Errorf("user = %q", got.User)
	}
}

func TestLoginRejectsBadCredentials(t *testing.T) {
	now := time.Now()
	svc := newTestService(&now)
	if _, err := svc.Login(context.Background(), "admin", "wrong"); !errors.Is(err, ErrInvalidCredentials) {
		t.Errorf("err = %v", err)
	}
	if _, err := svc.Login(context.Background(), "ghost", "secret"); !errors.Is(err, ErrInvalidCredentials) {
		t.Errorf("err = %v", err)
	}
}

func TestValidateRejectsUnknownToken(t *testing.T) {
	now := time.Now()
	svc := newTestService(&now)
	if _, err := svc.Validate("bogus"); !errors.Is(err, ErrInvalidToken) {
		t.Errorf("err = %v", err)
	}
}

func TestExpiry(t *testing.T) {
	now := time.Date(2023, 1, 1, 0, 0, 0, 0, time.UTC)
	svc := newTestService(&now)
	sess, err := svc.Login(context.Background(), "admin", "secret")
	if err != nil {
		t.Fatal(err)
	}
	now = now.Add(2 * time.Hour)
	if _, err := svc.Validate(sess.Token); !errors.Is(err, ErrInvalidToken) {
		t.Errorf("expired token accepted: %v", err)
	}
}

func TestLogout(t *testing.T) {
	now := time.Now()
	svc := newTestService(&now)
	sess, err := svc.Login(context.Background(), "admin", "secret")
	if err != nil {
		t.Fatal(err)
	}
	if err := logout(svc, sess.ID); err != nil {
		t.Fatal(err)
	}
	if _, err := svc.Validate(sess.Token); !errors.Is(err, ErrInvalidToken) {
		t.Errorf("token valid after logout: %v", err)
	}
	if err := logout(svc, sess.ID); !errors.Is(err, store.ErrNotFound) {
		t.Errorf("double logout err = %v", err)
	}
}

// TestExpiryIsPerSession: each session expires CreatedTime +
// SessionTimeout after its own login, not with the others.
func TestExpiryIsPerSession(t *testing.T) {
	now := time.Date(2023, 1, 1, 0, 0, 0, 0, time.UTC)
	svc := newTestService(&now)
	first, err := svc.Login(context.Background(), "admin", "secret")
	if err != nil {
		t.Fatal(err)
	}
	now = now.Add(30 * time.Minute)
	second, err := svc.Login(context.Background(), "admin", "secret")
	if err != nil {
		t.Fatal(err)
	}
	now = now.Add(45 * time.Minute) // first has expired, second has not
	if _, err := svc.Validate(first.Token); !errors.Is(err, ErrInvalidToken) {
		t.Errorf("expired first session validates: %v", err)
	}
	if _, err := svc.Validate(second.Token); err != nil {
		t.Errorf("live second session rejected: %v", err)
	}
}

func TestTokensUnique(t *testing.T) {
	now := time.Now()
	svc := newTestService(&now)
	seen := make(map[string]bool)
	for i := 0; i < 50; i++ {
		sess, err := svc.Login(context.Background(), "admin", "secret")
		if err != nil {
			t.Fatal(err)
		}
		if seen[sess.Token] {
			t.Fatal("duplicate token issued")
		}
		seen[sess.Token] = true
	}
}

func TestReturnedSessionIsCopy(t *testing.T) {
	now := time.Now()
	svc := newTestService(&now)
	sess, err := svc.Login(context.Background(), "admin", "secret")
	if err != nil {
		t.Fatal(err)
	}
	tok := sess.Token
	sess.Token = "mutated"
	if _, err := svc.Validate(tok); err != nil {
		t.Error("mutating returned session affected service state")
	}
}

func TestConcurrentLoginValidate(t *testing.T) {
	now := time.Now()
	svc := newTestService(&now)
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sess, err := svc.Login(context.Background(), "admin", "secret")
			if err != nil {
				t.Error(err)
				return
			}
			if _, err := svc.Validate(sess.Token); err != nil {
				t.Error(err)
			}
			if err := logout(svc, sess.ID); err != nil {
				t.Error(err)
			}
			if _, err := svc.Validate(sess.Token); !errors.Is(err, ErrInvalidToken) {
				t.Errorf("token valid after logout: %v", err)
			}
		}()
	}
	wg.Wait()
	if left, err := svc.st.Members(coll); err != nil || len(left) != 0 {
		t.Errorf("sessions remaining = %v (%v)", left, err)
	}
}

func TestSessionsProjectionConforms(t *testing.T) {
	session := func(token, created string) map[string]any {
		sum := sha256.Sum256([]byte(token))
		return map[string]any{"UserName": "admin", "CreatedTime": created,
			"Oem": map[string]any{"OFMF": map[string]any{"TokenSHA256": hex.EncodeToString(sum[:])}}}
	}
	put := func(t *testing.T, st *store.Store, id string, v any) {
		if err := st.Put(coll.Append(id), v); err != nil {
			t.Fatal(err)
		}
	}
	storetest.RunProjection(t, storetest.Projected{
		Boot: func(t *testing.T) storetest.Node {
			now := time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)
			svc := newTestService(&now)
			return storetest.Node{Store: svc.st, Registry: func() any {
				svc.mu.Lock()
				defer svc.mu.Unlock()
				return fmt.Sprintf("%v\n%v", svc.byHash, svc.hashOf)
			}}
		},
		Write: func(t *testing.T, st *store.Store) {
			put(t, st, "1", session("a", "2026-01-01T00:00:00Z"))
			put(t, st, "2", session("b", "2026-01-01T00:00:00Z"))
			put(t, st, "3", session("c", "2026-01-01T00:00:00Z"))
			put(t, st, "4", map[string]any{"UserName": "no token"})
			put(t, st, "2", session("b", "2026-01-01T00:30:00Z"))
			if err := st.Delete(coll.Append("3")); err != nil {
				t.Fatal(err)
			}
		},
		Member:   coll.Append("1"),
		Recreate: session("d", "2026-01-01T00:10:00Z"),
	})
}
