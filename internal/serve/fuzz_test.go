package serve

import (
	"slices"
	"testing"
)

// FuzzSubmit feeds arbitrary bodies through the three request decoders
// (kind selects replay, optimize or collective). No input may panic,
// and every rejection must be a structured 4xx. An accepted replay body
// parsed a second time is a trace-store hit and must resolve to the
// same decoded trace, digest, rank count and endpoints. The seed corpus
// lives in testdata/fuzz/FuzzSubmit; go test runs it, and
// go test -fuzz=FuzzSubmit ./internal/serve explores beyond it.
func FuzzSubmit(f *testing.F) {
	s := New(Options{Workers: 1})
	f.Cleanup(s.Close)
	f.Fuzz(func(t *testing.T, kind uint8, body []byte) {
		var aerr *apiError
		switch kind % 3 {
		case 0:
			var first *replayJob
			if first, aerr = s.parseReplay(body); aerr != nil {
				break
			}
			_, hits, _ := s.traces.stats()
			again, aerr := s.parseReplay(body)
			if aerr != nil {
				t.Fatalf("accepted replay rejected on its second parse: %s: %s", aerr.Code, aerr.Message)
			}
			if _, h, _ := s.traces.stats(); h != hits+1 {
				t.Errorf("second parse counted %d trace-store hits, want 1", h-hits)
			}
			if again.tr != first.tr || again.digest != first.digest ||
				again.tr.Meta.Ranks != first.tr.Meta.Ranks || !slices.Equal(again.places, first.places) {
				t.Errorf("store hit resolved differently: digest %s/%s, ranks %d/%d, %d/%d endpoints",
					first.digest, again.digest, first.tr.Meta.Ranks, again.tr.Meta.Ranks,
					len(first.places), len(again.places))
			}
		case 1:
			_, aerr = s.parseOptimize(body)
		default:
			_, aerr = s.parseCollective(body)
		}
		if aerr != nil && (aerr.Status < 400 || aerr.Status > 499 || aerr.Code == "" || aerr.Message == "") {
			t.Errorf("rejection is not a structured 4xx: %+v", aerr)
		}
	})
}
