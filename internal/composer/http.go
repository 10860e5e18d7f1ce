package composer

import (
	"encoding/json"
	"errors"
	"net/http"
	"strings"

	"ofmf/internal/service"
)

// ServeHTTP serves the Composability Layer's REST facade — the interface
// the paper places between clients (workload managers, runtimes,
// administrators) and the OFMF; the service mounts it with
// SetSystemComposer:
//
//	POST   /composer/v1/Compose           — realize a Request
//	GET    /composer/v1/Compositions      — list live compositions
//	GET    /composer/v1/Compositions/{id} — inspect one
//	DELETE /composer/v1/Compositions/{id} — decompose
//	POST   /composer/v1/Compositions/{id}/Actions/HotAddMemory — grow memory
//	GET    /composer/v1/Stats             — utilization counters
func (c *Composer) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	switch rest, _ := strings.CutPrefix(r.URL.Path, "/composer/v1/"); {
	case rest == "Compose":
		c.handleCompose(w, r)
	case rest == "ComposeAsync":
		c.handleComposeAsync(w, r)
	case rest == "Compositions":
		c.handleList(w, r)
	case strings.HasPrefix(rest, "Compositions/"):
		c.handleComposition(w, r, strings.Split(rest[len("Compositions/"):], "/"))
	case rest == "Stats":
		c.handleStats(w, r)
	default:
		httpError(w, http.StatusNotFound, "Base.1.0.ResourceMissingAtURI", "no such resource: "+r.URL.Path)
	}
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

// httpError emits the same Redfish extended-error envelope the OFMF's
// Redfish surface uses, so composer clients parse one error shape.
func httpError(w http.ResponseWriter, status int, code, message string) {
	writeJSON(w, status, service.RedfishError(status, code, message))
}

func writeErr(w http.ResponseWriter, err error) {
	status := http.StatusInternalServerError
	code := "Base.1.0.InternalError"
	switch {
	case errors.Is(err, ErrUnknownComp), errors.Is(err, ErrUnknownNode):
		status, code = http.StatusNotFound, "Base.1.0.ResourceMissingAtURI"
	case errors.Is(err, ErrNoCapacity), errors.Is(err, ErrNoPool):
		status, code = http.StatusConflict, "OFMF.1.0.InsufficientCapacity"
	case errors.Is(err, ErrInvalidRequest):
		status, code = http.StatusBadRequest, "Base.1.0.PropertyValueError"
	}
	httpError(w, status, code, err.Error())
}

// postedRequest decodes the Request a compose route was POSTed, or
// answers the refusal itself.
func postedRequest(w http.ResponseWriter, r *http.Request) (req Request, ok bool) {
	if r.Method != http.MethodPost {
		httpError(w, http.StatusMethodNotAllowed, "Base.1.0.OperationNotAllowed", "POST only")
		return req, false
	}
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		httpError(w, http.StatusBadRequest, "Base.1.0.MalformedJSON", err.Error())
		return req, false
	}
	return req, true
}

func (c *Composer) handleCompose(w http.ResponseWriter, r *http.Request) {
	req, ok := postedRequest(w, r)
	if !ok {
		return
	}
	comp, err := c.ComposeCtx(r.Context(), req)
	if err != nil {
		writeErr(w, err)
		return
	}
	w.Header().Set("Location", "/composer/v1/Compositions/"+comp.ID)
	writeJSON(w, http.StatusCreated, comp)
}

// handleComposeAsync accepts the request and returns 202 with the Redfish
// task monitor in Location, per the Redfish asynchronous-operation
// pattern.
func (c *Composer) handleComposeAsync(w http.ResponseWriter, r *http.Request) {
	req, ok := postedRequest(w, r)
	if !ok {
		return
	}
	task := c.ComposeAsync(req)
	w.Header().Set("Location", string(task.URI()))
	writeJSON(w, http.StatusAccepted, map[string]string{"TaskMonitor": string(task.URI())})
}

func (c *Composer) handleList(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		httpError(w, http.StatusMethodNotAllowed, "Base.1.0.OperationNotAllowed", "GET only")
		return
	}
	writeJSON(w, http.StatusOK, c.Compositions())
}

// handleComposition serves /composer/v1/Compositions/{parts...}.
func (c *Composer) handleComposition(w http.ResponseWriter, r *http.Request, parts []string) {
	id := parts[0]
	switch {
	case len(parts) == 1 && r.Method == http.MethodGet:
		comp, err := c.Get(id)
		if err != nil {
			writeErr(w, err)
			return
		}
		writeJSON(w, http.StatusOK, comp)
	case len(parts) == 1 && r.Method == http.MethodDelete:
		if err := c.DecomposeCtx(r.Context(), id); err != nil {
			writeErr(w, err)
			return
		}
		w.WriteHeader(http.StatusNoContent)
	case len(parts) == 3 && parts[1] == "Actions" && parts[2] == "HotAddMemory" && r.Method == http.MethodPost:
		var body struct {
			SizeMiB int64 `json:"SizeMiB"`
		}
		if err := json.NewDecoder(r.Body).Decode(&body); err != nil || body.SizeMiB <= 0 {
			httpError(w, http.StatusBadRequest, "Base.1.0.PropertyValueError", "SizeMiB must be positive")
			return
		}
		if err := c.HotAddMemoryCtx(r.Context(), id, body.SizeMiB); err != nil {
			writeErr(w, err)
			return
		}
		w.WriteHeader(http.StatusNoContent)
	default:
		httpError(w, http.StatusMethodNotAllowed, "Base.1.0.OperationNotAllowed", "unsupported")
	}
}

func (c *Composer) handleStats(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		httpError(w, http.StatusMethodNotAllowed, "Base.1.0.OperationNotAllowed", "GET only")
		return
	}
	writeJSON(w, http.StatusOK, c.Stats())
}
