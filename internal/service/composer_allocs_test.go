package service_test

import (
	"testing"

	"ofmf/internal/composer"
	"ofmf/internal/service"
)

// TestHandlerPatchAllocsWithComposer holds the composer's node
// projection to the PATCH path's allocations: every write_events
// request, and every record a replica applies, PATCHes a node's system
// without changing its cores or memory, which the projection must notice
// without decoding.
func TestHandlerPatchAllocsWithComposer(t *testing.T) {
	if service.RaceDetector {
		t.Skip("sync.Pool drops puts under the race detector")
	}
	bare := service.PatchAllocs(t, nil)
	mounted := service.PatchAllocs(t, func(svc *service.Service) {
		svc.SetSystemComposer(composer.New(svc, nil))
	})
	if mounted != bare {
		t.Errorf("PATCH with the composer = %v allocations, bare = %v", mounted, bare)
	}
}
