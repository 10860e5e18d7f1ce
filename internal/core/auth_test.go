package core_test

import (
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"ofmf/internal/core"
	"ofmf/internal/service"
	"ofmf/internal/sessions"
)

// TestComposingNeedsASession holds both ways of composing to the
// service's token check when credentials are configured: the facade at
// /composer/v1 and POST /redfish/v1/Systems answer 401 without a token
// and with a forged one, and compose with a session's token.
func TestComposingNeedsASession(t *testing.T) {
	f, err := core.New(core.Config{Nodes: 1, Service: service.Config{
		Credentials: sessions.StaticCredentials(map[string]string{"admin": "pw"})}})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	srv := httptest.NewServer(f.Handler())
	defer srv.Close()
	do := func(method, path, token, body string) *http.Response {
		t.Helper()
		req, err := http.NewRequest(method, srv.URL+path, strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		if token != "" {
			req.Header.Set("X-Auth-Token", token)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		_, _ = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return resp
	}
	login := do(http.MethodPost, string(service.SessionsURI), "", `{"UserName":"admin","Password":"pw"}`)
	token := login.Header.Get("X-Auth-Token")
	if login.StatusCode != http.StatusCreated || token == "" {
		t.Fatalf("login = %s, token %q", login.Status, token)
	}
	for _, tc := range []struct{ method, path, body string }{
		{http.MethodPost, "/composer/v1/Compose", `{"Name":"a","Cores":1}`},
		{http.MethodGet, "/composer/v1/Compositions", ""},
		{http.MethodGet, "/composer/v1/Stats", ""},
		{http.MethodPost, string(service.SystemsURI), `{"Name":"b","Cores":1}`},
	} {
		for _, forged := range []string{"", "forged"} {
			if resp := do(tc.method, tc.path, forged, tc.body); resp.StatusCode != http.StatusUnauthorized {
				t.Errorf("%s %s with token %q = %s, want 401", tc.method, tc.path, forged, resp.Status)
			}
		}
		want := http.StatusOK
		if tc.method == http.MethodPost {
			want = http.StatusCreated
		}
		if resp := do(tc.method, tc.path, token, tc.body); resp.StatusCode != want {
			t.Errorf("%s %s with the session's token = %s, want %d", tc.method, tc.path, resp.Status, want)
		}
	}
	if n := len(f.Composer.Compositions()); n != 2 {
		t.Errorf("%d compositions, want the two the session made", n)
	}
}
