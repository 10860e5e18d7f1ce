package benchkit

import (
	"bytes"
	"strconv"
)

// Exchange is one op rendered as an HTTP request, with the status a
// correct server answers.
type Exchange struct {
	Method, Path, Header string
	Body                 []byte
	Want                 int
}

// Session is the client state that turns a workload's ops into requests:
// the entity tag last seen per resource (what a conditional GET
// revalidates), the rising Seq every PATCH writes, and the composition
// in flight between a compose and its decompose. The generator and the
// ladder both render through it, so they send the same requests.
type Session struct {
	Tree     []string
	ETags    []string // last entity tag seen per tree index
	Seq      int64    // last Seq written by a PATCH
	CompName string   // system name of the last compose
	CompID   string   // composition id the server answered it with
	body     []byte
}

// NewSession starts a session over the workload's tree; seeds differ in
// the Seq values they write.
func NewSession(sz Sizes, seed int64) *Session {
	tree := sz.Tree()
	return &Session{Tree: tree, ETags: make([]string, len(tree)), Seq: seed * 1_000_000}
}

// Render builds the request for op. A conditional GET whose resource has
// no known entity tag (its plain GET failed) becomes a plain GET; the op
// is returned as sent. The body is valid until the next Render.
func (s *Session) Render(op Op) (Op, Exchange) {
	ex := Exchange{Method: "GET", Want: 200}
	switch op.Kind {
	case CondGet:
		ex.Path = s.Tree[op.Target]
		if s.ETags[op.Target] == "" {
			op.Kind = Get
			break
		}
		ex.Want, ex.Header = 304, "If-None-Match: "+s.ETags[op.Target]+"\r\n"
	case Get, ReplGet:
		ex.Path = s.Tree[op.Target]
	case Expand:
		ex.Path = "/redfish/v1/Systems?$expand=."
	case List:
		ex.Path = "/redfish/v1/Systems"
	case Patch:
		s.Seq++
		s.body = append(s.body[:0], `{"Oem":{"Bench":{"Seq":`...)
		s.body = strconv.AppendInt(s.body, s.Seq, 10)
		s.body = append(s.body, `}}}`...)
		ex.Method, ex.Path, ex.Body = "PATCH", s.Tree[op.Target], s.body
	case Compose:
		s.Seq++
		s.CompName = "bench" + strconv.FormatInt(s.Seq, 10)
		ex.Method, ex.Path, ex.Want = "POST", "/composer/v1/Compose", 201
		ex.Body = []byte(`{"Name":"` + s.CompName + `","Cores":4,"FabricMemoryMiB":1024,"StorageBytes":1073741824,"GPUSlices":1}`)
	case Decompose:
		ex.Method, ex.Path, ex.Want = "DELETE", "/composer/v1/Compositions/"+s.CompID, 204
	}
	return op, ex
}

// LastLine returns the last non-empty line of a program's output, where
// the benchmark's programs print their result.
func LastLine(out []byte) []byte {
	out = bytes.TrimSpace(out)
	if i := bytes.LastIndexByte(out, '\n'); i >= 0 {
		return out[i+1:]
	}
	return out
}
