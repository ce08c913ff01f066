package fleet

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"

	"repro/internal/campaign"
)

// Campaign artifact names under cfg.OutDir. The runner's own session
// JSONL/CSV land in the campaignDirName subdirectory, keeping the
// campaign's phase-tagged timeline separate from the fleet's merged
// cross-node session (both run concurrently).
const (
	campaignDirName    = "campaign"
	campaignReportName = "campaign-report.txt"
	campaignResultName = "campaign-result.json"
)

// RunCampaign drives the config's scenario campaign against the fleet's
// first gateway: the spec's addr is the launched (or attached) gateway,
// and an empty backends list is filled with the topology's backend
// addresses so fault steps land on their live POST /fault endpoints.
// The cross-node scrape keeps running throughout, so the merged fleet
// session records every node's view of the same phases the campaign
// tags in its own timeline.
func (c *Coordinator) RunCampaign() error {
	spec := c.cfg.Campaign
	if spec == nil {
		return fmt.Errorf("fleet: config has no campaign")
	}
	gw := c.byRole(roleGateway)[0]
	if len(spec.Backends) == 0 {
		for _, b := range c.byRole(roleBackend) {
			spec.Backends = append(spec.Backends, dialable(b.Addr))
		}
	}
	if c.cfg.Trace && spec.TraceEvery == 0 {
		// The fleet's trace plane is on: make the campaign originate
		// client trace IDs at the fleet's configured cadence.
		spec.TraceEvery = c.cfg.TraceClientEvery
	}
	if err := spec.Validate(); err != nil {
		return err
	}

	res, err := campaign.Run(spec, campaign.Options{
		Addr:   dialable(gw.Addr),
		OutDir: filepath.Join(c.cfg.OutDir, campaignDirName),
		Logf:   c.Logf,
	})
	if err != nil {
		return err
	}
	c.campaignRes = res

	report := campaign.FormatReport(res)
	if err := os.WriteFile(filepath.Join(c.cfg.OutDir, campaignReportName), []byte(report), 0o644); err != nil {
		return fmt.Errorf("fleet: campaign report: %w", err)
	}
	resJSON, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		return fmt.Errorf("fleet: campaign result: %w", err)
	}
	if err := os.WriteFile(filepath.Join(c.cfg.OutDir, campaignResultName), append(resJSON, '\n'), 0o644); err != nil {
		return fmt.Errorf("fleet: campaign result: %w", err)
	}
	c.Logf("campaign %s done: %d phases, %d fault steps, %d samples → %s",
		res.Name, len(res.Phases), len(res.Faults), res.Samples,
		filepath.Join(c.cfg.OutDir, campaignReportName))
	return nil
}

// CampaignResult returns the scenario campaign's result (nil before
// RunCampaign completes).
func (c *Coordinator) CampaignResult() *campaign.Result { return c.campaignRes }

// CampaignReport renders the scenario campaign's formatted report, or
// "" when no campaign has run.
func (c *Coordinator) CampaignReport() string {
	if c.campaignRes == nil {
		return ""
	}
	return campaign.FormatReport(c.campaignRes)
}
