package fleet

import (
	"fmt"
	"path/filepath"

	"repro/internal/campaign"
)

// RunCampaign drives the config's campaign against the fleet's first
// gateway: the spec's addr is the launched (or attached) gateway, and an
// empty backends list is filled with the topology's backend addresses so
// fault steps land on their live POST /fault endpoints. The fleet's
// recorder goes with it: it keeps ticking at the scrape interval, the
// campaign tags its rows with the phase and adds every node's phase
// boundary reads, and the report's per-node windows are cut from those.
// With the trace plane on, the campaign's client spans join the trace
// store as load/client.
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
	if err := spec.Validate(); err != nil {
		return err
	}

	res, err := campaign.Run(spec, campaign.Options{
		Addr:     dialable(gw.Addr),
		Recorder: c.rec,
		Logf:     c.Logf,
	})
	if err != nil {
		return err
	}
	c.campaignRes = res
	if c.traces != nil {
		spans := res.ClientSpans
		for i := range spans {
			spans[i].Node = "load/client"
		}
		c.traces.AddSpans(spans)
	}

	if _, _, err := campaign.WriteArtifacts(c.cfg.OutDir, res); err != nil {
		return fmt.Errorf("fleet: %w", err)
	}
	c.Logf("campaign %s done: %d phases, %d fault steps, %d samples → %s",
		res.Name, len(res.Phases), len(res.Faults), res.Samples,
		filepath.Join(c.cfg.OutDir, campaign.ReportFile))
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
