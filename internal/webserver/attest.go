package webserver

import (
	"net/http"

	"github.com/netmeasure/topicscope/internal/adcatalog"
	"github.com/netmeasure/topicscope/internal/attestation"
)

// serveAttestation serves the platform's well-known attestation file, or
// 404 for the enrolled-but-unattested domains Table 1 reports
// ("Allowed & !Attested 12").
func (s *Server) serveAttestation(w http.ResponseWriter, p *adcatalog.Platform) {
	if !p.Attested {
		http.Error(w, "not found", http.StatusNotFound)
		return
	}
	f := attestation.NewTopicsFile(p.Domain, p.AttestedAt, p.HasEnrollmentSite)
	setContentType(w, contentTypeJSON)
	if err := f.Encode(w); err != nil {
		http.Error(w, "encoding failure", http.StatusInternalServerError)
	}
}
