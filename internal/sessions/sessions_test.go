package sessions

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"ofmf/internal/odata"
	"ofmf/internal/store"
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
