"""§VI Discussion: do the risks survive in Microsoft eCDN?

Paper findings reproduced here:

- **free riding prevented** — the tenant id is not publicly visible, so
  there is nothing to scrape and a guessed credential is rejected;
- **direct content pollution**: no (sustained) peer connection observed;
- **video segment pollution**: still works — polluted segments flow from
  the malicious silent peer to the victim.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.attacks.free_riding import ApiKeyProbe
from repro.attacks.pollution import DirectContentPollutionTest, VideoSegmentPollutionTest
from repro.core.analyzer import PdnAnalyzer
from repro.core.report import TestReport
from repro.detection.signatures import extract_api_keys
from repro.environment import Environment, collect_finished_environments
from repro.harness.registry import experiment
from repro.harness.result import ResultBase
from repro.pdn.ecdn import build_ecdn_test_bed, tenant_id_exposed
from repro.streaming.http import HttpClient
from repro.util.tables import render_kv


@dataclass
class EcdnResult(ResultBase):
    """§VI: which PDN risks survive in Microsoft eCDN."""
    tenant_id_in_page: bool
    keys_scraped: int
    guessed_key_accepted: bool
    direct_pollution_triggered: bool
    segment_pollution_triggered: bool
    segment_pollution_polluted_played: int

    @property
    def free_riding_prevented(self) -> bool:
        """True when nothing scrapes and guessed credentials are rejected."""
        return not self.tenant_id_in_page and self.keys_scraped == 0 and not self.guessed_key_accepted

    def render(self) -> str:
        """Render the result as the paper-style text block."""
        return render_kv(
            "§VI Microsoft eCDN (paper findings in parentheses)",
            [
                ("tenant id visible in page (no)", self.tenant_id_in_page),
                ("API keys scraped from page (0)", self.keys_scraped),
                ("guessed credential accepted (no)", self.guessed_key_accepted),
                ("free riding prevented (yes)", self.free_riding_prevented),
                ("direct pollution succeeded (no)", self.direct_pollution_triggered),
                ("segment pollution succeeded (yes)", self.segment_pollution_triggered),
                ("polluted segments played", self.segment_pollution_polluted_played),
            ],
        )


@experiment(
    "ecdn",
    help="§VI: Microsoft eCDN discussion",
    paper_ref="§VI",
    order=120,
)
def run(seed: int = 606) -> EcdnResult:
    # Free-riding surface: scrape the page, then probe a guessed key.
    """Run the §VI eCDN checks and return the findings."""
    env = Environment(seed=seed)
    bed = build_ecdn_test_bed(env)
    html = HttpClient(env.urlspace).get(f"https://{bed.site.domain}/").body.decode()
    exposed = tenant_id_exposed(bed, html)
    scraped = extract_api_keys(html)
    guessed_ok, _ = ApiKeyProbe(env, bed.provider).probe("0123456789abcdef0123")
    del env, bed

    # Content integrity against the silent simulator.
    direct = _pollution_test(seed + 1, DirectContentPollutionTest)
    segment = _pollution_test(seed + 2, VideoSegmentPollutionTest)

    return EcdnResult(
        tenant_id_in_page=exposed,
        keys_scraped=len(scraped),
        guessed_key_accepted=guessed_ok,
        direct_pollution_triggered=direct.verdicts[0].triggered,
        segment_pollution_triggered=segment.verdicts[0].triggered,
        segment_pollution_polluted_played=segment.verdicts[0].details["polluted_played"],
    )


def _pollution_test(seed: int, test_class) -> TestReport:
    """One pollution test on a fresh eCDN test bed, the last one freed first."""
    collect_finished_environments()
    env = Environment(seed=seed)
    bed = build_ecdn_test_bed(env)
    analyzer = PdnAnalyzer(env)
    report = analyzer.run_test(test_class(bed))
    analyzer.teardown()
    return report
