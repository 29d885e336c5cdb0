package adcatalog

import (
	"fmt"
	"time"
)

// Table 1 calibration targets for the synthetic fill.
const (
	// TargetAllowed is the allow-list size the paper reports.
	TargetAllowed = 193
	// TargetActiveCallers is the number of Allowed & Attested CPs seen
	// calling in D_AA.
	TargetActiveCallers = 47
	// TargetAllowedNotAttested is the number of enrolled domains that
	// erroneously serve no attestation file.
	TargetAllowedNotAttested = 12
	// TargetQuestionableCallers is the number of Allowed & Attested CPs
	// calling in D_BA (before consent).
	TargetQuestionableCallers = 28
)

// Name fragments for realistic synthetic ad-tech domains. The generator
// combines them by index, so the synthetic catalog is a constant.
var (
	synPrefixes = []string{
		"ad", "bid", "pix", "tag", "aud", "trk", "sup", "targ", "verve",
		"pulse", "nexa", "spark", "prime", "zeta", "lumo", "brio", "kilo",
		"vanta", "orbi", "glim", "cast", "fuse", "rev", "mono", "flux",
	}
	synSuffixes = []string{
		"stream", "metrics", "lab", "works", "edge", "hub", "wave",
		"logic", "lane", "mode", "engine", "yield",
	}
	synTLDs = []string{"com", "net", "io", "co"}
)

// synDomain builds the i-th synthetic domain, collision-free because the
// index tuple is unique for i < len(prefixes)*len(suffixes)*len(tlds).
func synDomain(i int) string {
	p := synPrefixes[i%len(synPrefixes)]
	s := synSuffixes[(i/len(synPrefixes))%len(synSuffixes)]
	t := synTLDs[(i/(len(synPrefixes)*len(synSuffixes)))%len(synTLDs)]
	return fmt.Sprintf("%s%s.%s", p, s, t)
}

// callerEnrolmentDate spreads active callers' attestations over
// Jun 2023 .. Mar 2024 only, so all 47 are enrolled before the paper's
// crawl date (a platform cannot call before its attestation).
func callerEnrolmentDate(i int) time.Time {
	start := date(2023, time.June, 16)
	month := (i + 20) % 10 // Jun 2023 .. Mar 2024
	day := (i * 5) % 12
	return start.AddDate(0, month, day)
}

// enrolmentDate spreads synthetic attestation issue dates over the
// enrolment window the paper reconstructs: it "kicked off in June 2023"
// and continued "at a low pace: each month, approximately a dozen new
// services" through May 2024.
func enrolmentDate(i int) time.Time {
	start := date(2023, time.June, 16)
	month := i % 12 // spread over Jun 2023 .. May 2024
	day := (i * 5) % 12
	return start.AddDate(0, month, day)
}

// Figure 3 notes clustered, apparently predetermined A/B percentages;
// synthetic callers draw their enabled rate from the same clusters.
var abClusters = []float64{1.0, 0.75, 0.66, 0.50, 0.33, 0.25}

// syntheticFill builds the catalog's synthetic layer:
//
//   - enough low-reach active callers to reach TargetActiveCallers, half
//     of them ignoring consent so that the D_BA caller count lands near
//     TargetQuestionableCallers;
//   - dormant enrolled domains (zero reach — "may not have activated it,
//     or we did not encounter them during our crawling") to reach
//     TargetAllowed, of which TargetAllowedNotAttested serve no
//     attestation file.
func syntheticFill() []*Platform {
	var out []*Platform

	namedCallers, namedQuestionable := 0, 0
	for i := range named {
		p := &named[i]
		if p.CallsTopics && p.Reach > 0 && p.Allowed {
			namedCallers++
			if !p.ConsentAware {
				namedQuestionable++
			}
		}
	}

	needCallers := TargetActiveCallers - namedCallers
	needQuestionable := TargetQuestionableCallers - namedQuestionable
	for i := 0; i < needCallers; i++ {
		p := &Platform{
			Domain:   synDomain(i),
			Allowed:  true,
			Attested: true,
			// Active callers must be enrolled before the paper's March
			// 30th 2024 crawl; callerEnrolmentDate stays within
			// Jun 2023 .. Mar 2024.
			AttestedAt:        callerEnrolmentDate(i),
			HasEnrollmentSite: i%5 != 0,
			CallsTopics:       true,
			Reach:             0.002 + float64(0.0006*float64(i%12)), // rounded before the add: no FMA
			EnabledRate:       abClusters[i%len(abClusters)],
			ConsentAware:      i >= needQuestionable,
			CallMix:           mixJS,
		}
		if !p.ConsentAware {
			p.BeforeConsentRate = 0.3
		}
		out = append(out, p)
	}

	needDormant := TargetAllowed - namedAllowedCount() - needCallers
	for i := 0; i < needDormant; i++ {
		p := &Platform{
			Domain:            synDomain(1000 + i),
			Allowed:           true,
			Attested:          i >= TargetAllowedNotAttested,
			HasEnrollmentSite: i%4 != 0,
		}
		if p.Attested {
			p.AttestedAt = enrolmentDate(i + 40)
		}
		out = append(out, p)
	}
	return out
}

func namedAllowedCount() int {
	n := 0
	for i := range named {
		if named[i].Allowed {
			n++
		}
	}
	return n
}
