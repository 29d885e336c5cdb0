package etld

// Region is the coarse geographic grouping Figure 6 uses to break down
// questionable Topics API calls. The paper groups websites by top-level
// domain into .com, Japan (.jp), Russia (.ru), the European Union (the 30
// TLDs of EU countries where the GDPR is in force) and everything else.
type Region int

// The five regions of Figure 6, in the order the paper plots them.
const (
	RegionCom Region = iota
	RegionJapan
	RegionRussia
	RegionEU
	RegionOther
)

// Regions lists all regions in plotting order.
var Regions = []Region{RegionCom, RegionJapan, RegionRussia, RegionEU, RegionOther}

// String returns the axis label used in Figure 6.
func (r Region) String() string {
	switch r {
	case RegionCom:
		return ".com"
	case RegionJapan:
		return ".jp"
	case RegionRussia:
		return ".ru"
	case RegionEU:
		return "EU"
	default:
		return "Other"
	}
}

// euTLDs is the set of 30 TLDs the paper attributes to EU countries
// (the 27 ccTLDs plus .eu, and the alternative Greek and pan-EU forms).
var euTLDs = map[string]bool{
	"at": true, "be": true, "bg": true, "hr": true, "cy": true,
	"cz": true, "dk": true, "ee": true, "fi": true, "fr": true,
	"de": true, "gr": true, "el": true, "hu": true, "ie": true,
	"it": true, "lv": true, "lt": true, "lu": true, "mt": true,
	"nl": true, "pl": true, "pt": true, "ro": true, "sk": true,
	"si": true, "es": true, "se": true, "eu": true, "ευ": true,
}

// RegionOf classifies a hostname into one of the five Figure 6 regions by
// its top-level domain.
func RegionOf(host string) Region {
	switch tld := TLD(host); {
	case tld == "com":
		return RegionCom
	case tld == "jp":
		return RegionJapan
	case tld == "ru":
		return RegionRussia
	case euTLDs[tld]:
		return RegionEU
	default:
		return RegionOther
	}
}
