"""The check catalog: every verification in the suite, runnable by id.

Checks are grouped in dependency order (ideals, group action, cover,
invariants, bicanonical geometry); heavy intermediate artifacts (the lifted
group, enumerated point sets) are cached on the run context.  Every random
choice of a check comes from the run context: one seeded stream per
(purpose, prime), set by ``seed``.  Parameter draws failing the degeneracy
predicate, or with vanishing last coordinate, or with collapsed cubic nodes
are rejected upfront, and draws that land on other components of the
discriminant over the small field are redrawn with the reason recorded.  A
fixed ``nu`` replaces every parameter draw, so a check tests it once per
prime; ``grouprep.delta_set`` alone draws its parameters on the
hyperplanes it studies, where a fixed ``nu`` does not apply.

The suite modules ``cover``, ``bicanon`` and ``grouprep`` (and with them
numpy) are imported by the first check or cache that needs them, so a run
loads only what its selected checks use: ``upv run invariants`` never
imports them.
"""

from __future__ import annotations

import importlib
import random
import time
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Sequence, Tuple

from . import invariants, unproj
from .report import FAIL, CheckReport, verdict
from .scalars import GF, QQ
from .unproj import FamilyParams, node_defect

if TYPE_CHECKING:
    from . import cover


def _load(name: str):
    """The module ``upv.<name>``, imported at its first use: the lambda
    runners' form of a function-level import."""
    return importlib.import_module(f"{__package__}.{name}")


@dataclass
class RunConfig:
    primes: Tuple[int, ...] = (13, 17, 29)
    seed: int = 0
    nu: Optional[Tuple[int, ...]] = None
    lam: Optional[str] = None
    max_degree: int = 4
    output: Optional[str] = None
    timings: bool = False

    def validate(self):
        if not self.primes:
            raise ValueError("at least one prime is required")
        for k, p in enumerate(self.primes):
            field = GF(p)  # raises with the eps requirement message when p != 1 mod 4
            if p in self.primes[:k]:
                raise ValueError(f"prime {p} is given twice")
            if self.nu is not None:
                FamilyParams(field, tuple(self.nu))
        if self.max_degree < 1:
            raise ValueError("max degree must be at least 1")
        invariants.check_budget(self.max_degree)
        if self.lam is not None:
            try:
                lam = Fraction(self.lam)
            except (ValueError, ZeroDivisionError):
                raise ValueError(f"lambda {self.lam!r} is not a rational") from None
            from . import bicanon
            bicanon.check_pencil_lambda(lam)


class RunContext:
    """Shared caches for one run; checks compute only what they need."""

    def __init__(self, cfg: RunConfig):
        cfg.validate()
        self.cfg = cfg
        self._group: Optional[cover.FiniteProjGroup] = None
        self._group_report: Optional[CheckReport] = None
        self._points: Dict[tuple, cover.SurfacePointSet] = {}
        self._certificates: Dict[tuple, CheckReport] = {}
        self._rngs: Dict[str, random.Random] = {}
        self._v_quotient: Optional[invariants.BinomialQuotient] = None

    def rng(self, purpose: str) -> random.Random:
        if purpose not in self._rngs:
            self._rngs[purpose] = random.Random((self.cfg.seed, purpose).__repr__())
        return self._rngs[purpose]

    def group_report(self) -> CheckReport:
        """The certificate of the lifted group, built once per run."""
        if self._group_report is None:
            from . import cover
            self._group, self._group_report = cover.build_lifts_and_certify()
        return self._group_report

    def group(self) -> cover.FiniteProjGroup:
        """The lifted group; raises when its certification failed."""
        rep = self.group_report()
        if not rep.passed:
            raise RuntimeError(f"group certification failed: {rep.witness}")
        return self._group

    def v_quotient(self) -> invariants.BinomialQuotient:
        """V's quotient, which holds at every prime, built once per run in
        the degrees that ``hilbert_v`` (3) and ``hilbert_t`` (max(2,
        max_degree)) read."""
        if self._v_quotient is None:
            self._v_quotient = invariants.v_quotient(max(3, self.cfg.max_degree))
        return self._v_quotient

    def draws(self, n: int) -> int:
        """How many distinct draws a check asking for n can make: one when
        ``nu`` is fixed."""
        return 1 if self.cfg.nu is not None else n

    def draw_nu(self, p: int, purpose: str) -> FamilyParams:
        """One generic parameter draw: rejects the zero tuple, degenerate
        tuples and those with a node defect (``unproj.node_defect``:
        vanishing nu4 or collapsed nodes).  A fixed ``nu`` is returned as
        given."""
        if self.cfg.nu is not None:
            return FamilyParams(GF(p), tuple(self.cfg.nu))
        rng = self.rng(f"{purpose}:{p}")
        while True:
            draw = tuple(rng.randrange(p) for _ in range(5))
            if not any(draw):  # no projective point
                continue
            nu = FamilyParams(GF(p), draw)
            if not nu.degenerate()[0] and not node_defect(nu):
                return nu

    def points(self, p: int, nu: FamilyParams) -> cover.SurfacePointSet:
        key = (p, tuple(int(v) for v in nu.nu))
        if key not in self._points:
            from . import cover
            self._points[key] = cover.enumerate_surface(p, nu)
        return self._points[key]

    def certificate(self, p: int, nu: FamilyParams) -> CheckReport:
        """The freeness and smoothness certificate of a surface, once per run."""
        key = (p, tuple(int(v) for v in nu.nu))
        if key not in self._certificates:
            from . import cover
            self._certificates[key] = cover.certify_free_and_smooth(
                self.points(p, nu), self.group())
        return self._certificates[key]

    def smooth_points(self, p: int, purpose: str,
                      cap: int = 40) -> Tuple[cover.SurfacePointSet, List[str]]:
        """Draw until the enumerated surface is free and smooth over F_p;
        returns the accepted point set and the recorded redraws.  Only a
        lone rank drop is redrawn, and a fixed ``nu`` gets one attempt; any
        other failure raises and says why.  A fixed ``nu`` that
        ``degenerate()`` flags, or with nu4 = 0, raises before its
        certificate is built, as a drawn one is rejected: the group's fixed
        points there need not be F_p-rational, so the certificate could
        pass."""
        redraws = []
        for _ in range(self.draws(cap)):
            nu = self.draw_nu(p, purpose)
            ints = tuple(int(v) for v in nu.nu)
            degenerate, reason = nu.degenerate()
            if self.cfg.nu is not None and (degenerate or not nu.nu[4]):
                raise RuntimeError(f"fixed nu={ints} is degenerate over GF({p}) "
                                   f"({reason or 'nu4 = 0'}), outside the freeness claim")
            rep = self.certificate(p, nu)
            if rep.passed:
                return self.points(p, nu), redraws
            problems = " | ".join(rep.witness.get("problems", []))
            if rep.witness["rank2_everywhere"] or len(rep.witness["problems"]) > 1:
                raise RuntimeError(
                    f"free action failed for non-degenerate nu={ints}: {problems}")
            if self.cfg.nu is not None:
                raise RuntimeError(f"fixed nu={ints} has a rational singular point "
                                   f"(discriminant mod {p}): {problems}")
            redraws.append(f"nu={ints}: rational singular point (discriminant mod {p})")
        raise RuntimeError(f"no smooth draw found over GF({p}) in {cap} attempts")


@dataclass(frozen=True)
class CheckDef:
    check_id: str
    description: str
    claim: str
    runner: Callable[[RunContext], CheckReport]


def _free_action_check(ctx: RunContext) -> CheckReport:
    problems = []
    detail = {}
    for p in ctx.cfg.primes:
        accepted = []
        redrawn: List[str] = []
        for k in range(ctx.draws(5)):
            try:
                pts, redraws = ctx.smooth_points(p, f"free{k}")
            except RuntimeError as exc:
                problems.append(str(exc))
                break
            redrawn.extend(redraws)
            accepted.append({"nu": [int(v) for v in pts.nu.nu],
                             "points": pts.count})
        detail[str(p)] = {"accepted": accepted, "redraws": redrawn}
        if len(accepted) < ctx.draws(5):
            problems.append(f"GF({p}): only {len(accepted)} accepted draws")
    return verdict("cover.free_action", problems, {"per_prime": detail},
                   params={"primes": list(ctx.cfg.primes), "seed": ctx.cfg.seed})


def _enumeration_check(ctx: RunContext) -> CheckReport:
    import numpy as np

    from . import cover
    p = ctx.cfg.primes[0]
    problems = []
    nu = ctx.draw_nu(p, "enum")
    pts = ctx.points(p, nu)
    oracle = cover.brute_force_count(p, nu)
    if oracle != pts.count:
        problems.append(f"enumerated count {pts.count} != naive count {oracle}")
    if pts.count % 2:
        problems.append(f"odd point count {pts.count}")
    rerun = cover.enumerate_surface(p, nu)
    if not np.array_equal(rerun.points.keys(), pts.points.keys()):
        problems.append("enumeration is not deterministic")
    ycount = cover.y_point_count_report(p)
    if not ycount.passed:
        problems.append(f"image count failed: {ycount.witness}")
    return verdict("cover.enumeration", problems,
                   {"points": pts.count, "naive_oracle": oracle,
                    "image_points": ycount.witness.get("image_points")},
                   params=dict(nu.as_params(), prime=p, seed=ctx.cfg.seed))


def _ideal_census_check(ctx: RunContext) -> CheckReport:
    problems = []
    j = unproj.build_unprojection_ideal()
    counts = j.counts()
    if counts != {"quadric": 3, "cubic": 32, "quartic": 28}:
        problems.append(f"J census {counts}")
    if not all(g.is_homogeneous() for g in j.polys()):
        problems.append("a generator is inhomogeneous")
    p = ctx.cfg.primes[0]
    nu = ctx.draw_nu(p, "census")
    t = unproj.build_t_ideal(nu)
    if len(t.generators) != 65:
        problems.append(f"T has {len(t.generators)} generators")
    # spot values of the section at the two basis parameter points
    e4 = unproj.q_section(FamilyParams(QQ, (0, 0, 0, 0, 1)))
    if e4 != unproj.y_eigenvector(QQ):
        problems.append("section at (0,0,0,0,1) is not the signed y-sum")
    e0 = unproj.q_section(FamilyParams(QQ, (1, 0, 0, 0, 0)))
    if e0 != unproj.s_form(QQ, 0):
        problems.append("section at (1,0,0,0,0) is not s0")
    return verdict("unproj.ideal_census", problems,
                   {"J": counts, "T_generators": len(t.generators)})


def _sigma_pullback_check(ctx: RunContext) -> CheckReport:
    from . import cover
    problems = []
    sig = cover.sigma_map(QQ)
    j = unproj.build_unprojection_ideal(QQ)
    nonzero = [name for name, g, _ in j.generators if not sig.apply(g).is_zero()]
    if nonzero:
        problems.append(f"sigma does not kill {nonzero}")
    if cover.z1_poly(QQ) != cover.z1_display(QQ):
        problems.append("sigma#(x00+x01) differs from the tabulated Z1")
    p = ctx.cfg.primes[0]
    nu = ctx.draw_nu(p, "census")
    _, zrep = cover.build_z2(nu)
    if not zrep.passed:
        problems.append(f"Z2 construction: {zrep.witness}")
    return verdict("unproj.sigma_pullback", problems,
                   on_pass={"generators_killed": 63, "z1": "matches display",
                            "z2": "2*sigma#(q) matches display exactly"})


def _hilbert_t_check(ctx: RunContext) -> CheckReport:
    nus = {p: [ctx.draw_nu(p, f"hilbert{k}") for k in range(ctx.draws(3))]
           for p in ctx.cfg.primes}
    return invariants.hilbert_t_report(ctx.cfg.primes, nus,
                                       max_degree=max(2, ctx.cfg.max_degree),
                                       v=ctx.v_quotient())


def _s3_derivation_check(ctx: RunContext) -> CheckReport:
    from . import bicanon
    problems = []
    runs = 0
    for p in ctx.cfg.primes:
        for k in range(ctx.draws(20)):
            nu = ctx.draw_nu(p, f"s3d{k}")
            _, rep = bicanon.derive_s3_cubic(nu)
            runs += 1
            if not rep.passed:
                problems.append(f"GF({p}) nu={tuple(int(v) for v in nu.nu)}")
    return verdict("bicanon.s3_derivation", problems, {"draws": runs},
                   params={"primes": list(ctx.cfg.primes), "seed": ctx.cfg.seed})


def _s3_points_check(ctx: RunContext) -> CheckReport:
    from . import bicanon
    p = ctx.cfg.primes[0]
    pts, redraws = ctx.smooth_points(p, "s3pts")
    rep = bicanon.scubic_points_report(pts)
    if redraws:
        rep.witness = dict(rep.witness, redraws=redraws)
    return rep


def _nodes_check(ctx: RunContext) -> CheckReport:
    from . import bicanon
    p = ctx.cfg.primes[0]
    rep = bicanon.verify_nodes(p, [ctx.draw_nu(p, "nodes") for _ in range(ctx.draws(100))])
    params = {"prime": p, "seed": ctx.cfg.seed}
    ok_paths, note = bicanon.nodes_error_paths()
    if ok_paths:
        return replace(rep, witness=dict(rep.witness, error_paths=note), params=params)
    return verdict("bicanon.nodes", rep.witness.get("problems", []) + [note],
                   {"draws": rep.witness["draws"]}, params=params)


def _q_invariance_check(ctx: RunContext) -> CheckReport:
    p = ctx.cfg.primes[0]
    nus = [ctx.draw_nu(p, "qinv") for _ in range(ctx.draws(20))]
    rep = _load("grouprep").q_invariance_report(nus, ctx.rng(f"qinv_words:{p}"))
    return replace(rep, params={"prime": p, "seed": ctx.cfg.seed})


def _delta_set_check(ctx: RunContext) -> CheckReport:
    """The parameters lie on the hyperplanes of the delta set by
    construction, so a fixed ``nu`` does not apply; only the draws of
    nu1..nu4 come from the run's stream."""
    p = ctx.cfg.primes[0]
    rep = _load("grouprep").delta_set_report(p, ctx.rng(f"delta:{p}"))
    return replace(rep, params={"prime": p, "seed": ctx.cfg.seed})


def _plane_sections_check(ctx: RunContext) -> CheckReport:
    from . import bicanon
    p = ctx.cfg.primes[0]
    nu = ctx.draw_nu(p, "sections")
    return bicanon.split_plane_sections(nu)


def _branch_loci_check(ctx: RunContext) -> CheckReport:
    """Containment must hold for every accepted draw; the itemized positive
    hits (each line and each conic visibly met) may accumulate across draws,
    since a single small-field draw can have an entirely non-rational branch
    curve upstairs."""
    from . import bicanon
    p = ctx.cfg.primes[0]
    wanted_hits = [f"theta{i}.{kind}" for i in (1, 2, 3) for kind in ("line", "conic")]
    accepted = 0
    redraws: List[str] = []
    problems = []
    details = []
    covered: Dict[str, int] = {k: 0 for k in wanted_hits}
    for k in range(ctx.draws(25)):
        if accepted >= ctx.draws(3) and all(covered.values()):
            break
        pts, smooth_redraws = ctx.smooth_points(p, f"branch{k}")
        redraws.extend(smooth_redraws)
        rep = bicanon.branch_locus_check(pts)
        if rep.witness.get("violations"):
            redraws.append(
                f"nu={tuple(int(v) for v in pts.nu.nu)}: "
                + " | ".join(rep.witness["violations"])[:160])
            continue
        accepted += 1
        hits = rep.witness.get("hits", {})
        for key in wanted_hits:
            covered[key] += hits.get(key, 0)
        details.append({"nu": [int(v) for v in pts.nu.nu], "hits": hits})
    if accepted < ctx.draws(3):
        problems.append(f"only {accepted} draws with clean containment")
    unseen = [k for k, n in covered.items() if not n]
    if unseen:
        problems.append(f"loci never visibly hit: {unseen}")
    return verdict("bicanon.branch_loci", problems,
                   {"accepted_draws": details, "cumulative_hits": covered,
                    "redraws": redraws},
                   params={"prime": p, "seed": ctx.cfg.seed})


def _parameter_map_check(ctx: RunContext) -> CheckReport:
    from . import bicanon
    lam = Fraction(ctx.cfg.lam) if ctx.cfg.lam else Fraction(3)
    _, rep = bicanon.burniat_parameter_map(lam)
    p = ctx.cfg.primes[0]
    rng = ctx.rng("parmap")
    field = GF(p)
    for _ in range(20):
        lv = field.from_int(rng.randrange(2, p))
        if lv == -1:  # excluded by ``check_pencil_lambda``
            continue
        neg = -lv
        if pow(int(neg), (p - 1) // 2, p) == 1:
            _, rep_p = bicanon.burniat_parameter_map(lv)
            if not rep_p.passed:
                return rep_p
            break
    return rep


CATALOG: List[CheckDef] = [
    CheckDef("unproj.ideal_census",
             "generator census of the unprojection ideal and the family section",
             "3 quadrics + 32 cubics + 28 quartics; 65 generators with the section",
             _ideal_census_check),
    CheckDef("unproj.sigma_pullback",
             "the covering map kills every generator and recovers Z1, Z2",
             "sigma#(g) = 0 for all 63 generators; 2 sigma#(q) = Z2",
             _sigma_pullback_check),
    CheckDef("unproj.phi_representations",
             "the four rational representations of each unprojection section agree",
             "cross-differences are monomial multiples of single quadrics",
             lambda ctx: unproj.phi_consistency_report()),
    CheckDef("unproj.quartic_witnesses",
             "dependence of the written quartics on the witness choice",
             "24 quartics have a unique written form; antipodal variants agree "
             "modulo the quadrics",
             lambda ctx: unproj.quartic_witness_report()),
    CheckDef("unproj.plane_incidences",
             "pairwise intersections of the 8 unprojected linear spaces",
             "24 pairs meet in lines (rank 6), 4 antipodal pairs are disjoint (rank 8)",
             lambda ctx: unproj.verify_plane_incidences()),
    CheckDef("unproj.elimination_cubic",
             "eliminating the weight-2 variables from the section",
             "x00*q rewrites to the cubic x00*l + nu4*(x10+x11)(x20+x21)(x30+x31)",
             lambda ctx: unproj.elimination_cubic_report(
                 ctx.draw_nu(ctx.cfg.primes[0], "elim"))),
    CheckDef("unproj.jacobian_minor",
             "the 12x12 Jacobian minors at the weight-2 coordinate points",
             "each determinant equals +-y^11",
             lambda ctx: unproj.verify_jacobian_minor()),
    CheckDef("unproj.veronese_chart",
             "the symmetric-matrix chart at a weight-1 coordinate point",
             "all 2x2 minors of the 4x4 symmetric matrix vanish on the chart",
             lambda ctx: unproj.verify_veronese_chart()),
    CheckDef("grouprep.table1_relations",
             "the six signed-permutation generators",
             "six commuting involutions acting as tabulated",
             lambda ctx: _load("grouprep").table1_relations_report()),
    CheckDef("grouprep.subgroup_census",
             "the order-8 and order-32 subgroups and the three cosets",
             "|G| = 8, |H| = 32, theta_i are disjoint 8-element cosets",
             lambda ctx: _load("grouprep").subgroup_census_report()),
    CheckDef("grouprep.regular_representation",
             "characters on the weight-1 span and the signed y-sums",
             "regular character on the x-span; 8 eigenvectors realize all characters",
             lambda ctx: _load("grouprep").check_regular_representation()),
    CheckDef("grouprep.fixed_loci",
             "eigen-conditions cutting the fixed loci of the involutions",
             "constraints are eigenvectors; reference displays match",
             lambda ctx: _load("grouprep").fixed_loci_report()),
    CheckDef("grouprep.q_invariance",
             "which words fix the quadric section",
             "exactly the even-exponent words send q to q",
             _q_invariance_check),
    CheckDef("grouprep.j_stability",
             "stability of the 63 generators under the full group",
             "every word permutes the generators up to sign",
             lambda ctx: _load("grouprep").j_generator_stability_report()),
    CheckDef("grouprep.delta_set",
             "parameters at which the three-letter involution has fixed points",
             "fixed points appear exactly at delta = +-8*eps",
             _delta_set_check),
    CheckDef("cover.sigma_deck",
             "the deck involution commutes with the covering map",
             "s rescales every pullback by (-1)^weight",
             lambda ctx: _load("cover").sigma_deck_report()),
    CheckDef("cover.group_structure",
             "closure and certification of the lifted group",
             "order 16, statistics (1,3,12), unique common square, Z/2 x Q8",
             lambda ctx: ctx.group_report()),
    CheckDef("cover.z2_construction",
             "the multidegree-(2,2,2,2) equation of the surface family",
             "2 sigma#(q) equals the display and is group-semi-invariant",
             lambda ctx: _load("cover").build_z2(
                 ctx.draw_nu(ctx.cfg.primes[0], "z2"))[1]),
    CheckDef("cover.branch_structure",
             "branching of the degree-2 covering map",
             "16 deck fixed points; local pullback ideal is the squared maximal ideal",
             lambda ctx: _load("cover").verify_branch_structure(ctx.cfg.primes[0])),
    CheckDef("cover.enumeration",
             "point enumeration against the naive oracle",
             "the enumerated count matches the full scan; image count matches",
             _enumeration_check),
    CheckDef("cover.free_action",
             "freeness and smoothness over all configured primes",
             "no nontrivial element fixes a point; Jacobian rank 2 everywhere",
             _free_action_check),
    CheckDef("cover.hplane_decomposition",
             "the hyperplane sections of the image decompose as stated",
             "each section is one coordinate point plus six quartic surfaces",
             lambda ctx: _load("cover").verify_hplane_decomposition(ctx.cfg.primes[0])),
    CheckDef("invariants.hilbert_x",
             "Hilbert function of the quadric complete intersection",
             "h_X(d) matches the series of 3 quadrics in 8 variables, d <= 6",
             lambda ctx: invariants.hilbert_x_report(ctx.cfg.primes[0], 6)),
    CheckDef("invariants.hilbert_t",
             "Hilbert function of the family surfaces across primes and draws",
             "h_T = 1, 7, 32, 80, 152 in degrees 0..4",
             _hilbert_t_check),
    CheckDef("invariants.hilbert_v",
             "Hilbert function of the key 3-fold",
             "h_V(1) = 7; higher degrees stable across primes",
             lambda ctx: invariants.hilbert_v_report(ctx.cfg.primes[:2],
                                                     v=ctx.v_quotient())),
    CheckDef("invariants.intersection_numbers",
             "intersection numbers in the cohomology of (P^1)^4",
             "H^4 = 24; degree 12 downstairs; K^2 = 24 for the surfaces",
             lambda ctx: invariants.intersection_numbers_report()),
    CheckDef("bicanon.s3_derivation",
             "the squaring derivation of the bicanonical cubic",
             "an exact polynomial identity for random parameters over 3 primes",
             _s3_derivation_check),
    CheckDef("bicanon.s3_points",
             "enumerated surface points land on the bicanonical cubic",
             "100% of images satisfy the cubic",
             _s3_points_check),
    CheckDef("bicanon.nodes",
             "the three nodes of the bicanonical cubic",
             "gradient vanishes and the Hessian has full rank at each node",
             _nodes_check),
    CheckDef("bicanon.plane_sections",
             "plane sections of the cubic split as line plus conic",
             "restriction to s_i = -s0 factors exactly; node lines lie on the cubic",
             _plane_sections_check),
    CheckDef("bicanon.branch_loci",
             "branch loci of the degree-4 quotient map",
             "fixed-point images land in C_{i+1} + L_{i-1} + {n_i} (+ corner)",
             _branch_loci_check),
    CheckDef("burniat.nodes",
             "the 24 double points of the special pencil chart",
             "F1 = F2 = 0 on all 24 points with Hessian diagonal -4",
             lambda ctx: _load("bicanon").burniat_nodes_report()),
    CheckDef("burniat.charts",
             "the torus chart and the pencil generators",
             "pullbacks are -F1 and F2 exactly; the chart lies on the 3-fold",
             lambda ctx: _load("bicanon").burniat_charts_report()),
    CheckDef("burniat.f3",
             "smoothness of the pencil member along the second chart",
             "the two partials at x00 = 0 have no common zero off the axes",
             lambda ctx: _load("bicanon").burniat_f3_report()),
    CheckDef("burniat.lambda_identity",
             "the plane-model identity",
             "(lam+1)^2 prod(s_i - s0) + 2 lam s0 (sum s_i - s0)^2 = 0 identically",
             lambda ctx: _load("bicanon").lambda_identity_report()),
    CheckDef("burniat.parameter_map",
             "matching the pencil against the plane model",
             "nu4 = (lambda+1)/4 empirically; printed 4(lambda+1) off by 16",
             _parameter_map_check),
]

ALIASES = {
    "bicanon.lambda_identity": "burniat.lambda_identity",
    "bicanon.burniat_nodes": "burniat.nodes",
    "bicanon.burniat_charts": "burniat.charts",
    "bicanon.burniat_f3": "burniat.f3",
    "bicanon.parameter_map": "burniat.parameter_map",
}

SUITES = ("all", "unproj", "grouprep", "cover", "invariants", "bicanon", "burniat")


def resolve_targets(targets: Sequence[str]) -> List[CheckDef]:
    by_id = {c.check_id: c for c in CATALOG}
    if not targets:
        targets = ["all"]
    chosen: List[CheckDef] = []
    seen = set()
    for t in targets:
        t = ALIASES.get(t, t)
        if t == "all":
            wanted = list(CATALOG)
        elif t in SUITES:
            wanted = [c for c in CATALOG if c.check_id.startswith(t + ".")]
        elif t in by_id:
            wanted = [by_id[t]]
        else:
            raise KeyError(t)
        for c in wanted:
            if c.check_id not in seen:
                seen.add(c.check_id)
                chosen.append(c)
    return chosen


def run_checks(defs: Sequence[CheckDef], ctx: RunContext) -> List[CheckReport]:
    """Run each check and time it here, so ``wall_ms`` covers everything the
    check waited for, including shared artifacts it was the first to need."""
    out = []
    for d in defs:
        t0 = time.perf_counter()
        try:
            rep = d.runner(ctx)
        except Exception as exc:  # a crashed check is a failed check
            rep = CheckReport(d.check_id, FAIL, {"error": f"{type(exc).__name__}: {exc}"})
        # a fresh record, so a cached report is never stamped twice
        out.append(replace(rep, wall_ms=(time.perf_counter() - t0) * 1000.0))
    return out
