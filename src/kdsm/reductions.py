"""Instance reductions with agent-level correspondence maps.

Two constructions are provided, each returning the built instance together
with a map object that lets matchings be transported across the reduction:

* :func:`lift_3_to_k` embeds a 3-type instance with incomplete lists into a
  k-type instance (k >= 4) whose identifier set per type is the square of
  the input's. Every family of the output has a canonical shape anchored on
  "diagonal" non-dummy agents, which makes the transport a bijection.

* :func:`complete_instance` turns a k-type instance with incomplete lists
  into one with complete lists. Every input agent grows into a gadget, a
  grid of k rows and (k-1)^2 + 1 columns of dummy agents; column 0 of the
  agent's own row is the non-dummy agent representing it. Dummy preference
  lists walk their own gadget column by column, the last (boundary) column
  additionally splices in all boundary agents of the next type, and the
  non-dummy list starts with the input agent's preferences mapped onto
  non-dummy agents.

Matchings are moved down by reading off non-dummy families and up by an
explicit row-shift construction; executable checkers verify the structural
confinement facts the constructions rely on. Every function here that takes
a matching, transport or checker, reads it as the partner rows of
:func:`kdsm.core.matching_rows` and raises TransportFormError for a matching
that does not fit. A map built with n < 0 or k below its ``MIN_K`` raises
DimensionError.

Each map depends only on its kind, k and n, so a map file is exactly four
lines: ``KDSM-MAP 1`` / ``kind lift|gadget`` / ``k <k>`` / ``n <n>``. For a
lift, k is the output dimension and n the input's; for a gadget map both
are the input's. :func:`parse_map` reads nothing else; files written before
the header existed (one line per output agent) are rejected.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import ClassVar, Iterator, Literal

from .core import (
    AgentRef,
    ArgumentError,
    DimensionError,
    Family,
    FormatError,
    Instance,
    InvalidFamilyError,
    KdsmError,
    Matching,
    TypeMismatchError,
    check_agent,
    check_dims,
    family_violations,
    matching_rows,
    parse_dims,
)

MAP_HEADER = "KDSM-MAP 1"


class TransportFormError(KdsmError):
    """A matching cannot be transported because a family has the wrong shape."""


@dataclass(frozen=True)
class CorrMap3K:
    """Agent correspondence for the 3-to-k lift.

    Output agents are addressed as (i, j, t) with i, j input identifiers
    and t the output type; the flat identifier of (i, j, t) within type t
    is i * n + j. The non-dummy agent for input agent (t, i) with t in
    {0, 1, 2} is (i, i, t).
    """

    n: int
    k_out: int
    MIN_K: ClassVar[int] = 4

    def __post_init__(self) -> None:
        check_dims(self.k_out, self.n, self.MIN_K)

    @property
    def n_out(self) -> int:
        return self.n * self.n

    def to_output(self, i: int, j: int, t: int) -> AgentRef:
        if not (0 <= i < self.n and 0 <= j < self.n and 0 <= t < self.k_out):
            raise ArgumentError(f"coordinates ({i}, {j}, {t}) out of range")
        return AgentRef(t, i * self.n + j)

    def from_output(self, a: AgentRef) -> tuple[int, int, int]:
        check_agent("output agent", a, self.k_out, self.n_out)
        i, j = divmod(a.i, self.n)
        return i, j, a.t

    def non_dummy(self, alpha: AgentRef) -> AgentRef:
        """The output agent representing input agent ``alpha`` (types 0..2)."""
        if not 0 <= alpha.t < 3:
            raise ArgumentError(f"input agent type {alpha.t} out of range")
        return self.to_output(alpha.i, alpha.i, alpha.t)

    def with_source(self, inst: Instance) -> "CorrMap3K":
        """This map, once ``inst`` is checked to be a source it lifts."""
        _check_source(inst, 3, self.n)
        return self

    def serialize(self) -> str:
        return _map_text("lift", self.k_out, self.n)


@dataclass(frozen=True)
class GadgetMap:
    """Agent correspondence for the list-completing reduction.

    Output agents are addressed as (j, alpha, t): gadget column j in
    J = {0, ..., (k-1)^2}, input agent alpha, output type t (the gadget
    row). The flat identifier of (j, alpha, t) within type t is
    j * (k * n) + alpha.t * n + alpha.i, which is compatible with
    increasing lexicographic order on (j, alpha). ``source`` carries the
    input instance when the map was produced by the reduction; transport
    down and the mapped preference prefix need it.
    """

    k: int
    n: int
    source: Instance | None = None
    MIN_K: ClassVar[int] = 3

    def __post_init__(self) -> None:
        check_dims(self.k, self.n, self.MIN_K)

    @property
    def boundary(self) -> int:
        """Index of the last gadget column."""
        return (self.k - 1) ** 2

    @property
    def jsize(self) -> int:
        return self.boundary + 1

    @property
    def n_out(self) -> int:
        return self.jsize * self.k * self.n

    def input_agents(self) -> Iterator[AgentRef]:
        for t in range(self.k):
            for i in range(self.n):
                yield AgentRef(t, i)

    def to_output(self, j: int, alpha: AgentRef, t: int) -> AgentRef:
        if not (0 <= j < self.jsize and 0 <= t < self.k):
            raise ArgumentError(f"coordinates (j={j}, t={t}) out of range")
        check_agent("input agent", alpha, self.k, self.n)
        return AgentRef(t, j * (self.k * self.n) + alpha.t * self.n + alpha.i)

    def from_output(self, a: AgentRef) -> tuple[int, AgentRef]:
        check_agent("output agent", a, self.k, self.n_out)
        j, rem = divmod(a.i, self.k * self.n)
        ta, ia = divmod(rem, self.n)
        return j, AgentRef(ta, ia)

    def non_dummy(self, alpha: AgentRef) -> AgentRef:
        """Output agent (0, alpha, alpha.t) representing input agent alpha."""
        return self.to_output(0, alpha, alpha.t)

    def _require_source(self) -> Instance:
        if self.source is None:
            raise KdsmError(
                "this operation needs the input instance; attach it with with_source()"
            )
        return self.source

    def with_source(self, inst: Instance) -> "GadgetMap":
        _check_source(inst, self.k, self.n)
        return GadgetMap(self.k, self.n, inst)

    def mapped_prefix(self, alpha: AgentRef) -> tuple[AgentRef, ...]:
        """The input agent's preference list mapped onto non-dummy output agents.

        Entry order follows the input list; the result is the prefix that
        the non-dummy agent's output preference list starts with. Raises
        ArgumentError for an input agent outside the map.
        """
        check_agent("input agent", alpha, self.k, self.n)
        src = self._require_source()
        nt = (alpha.t + 1) % self.k
        return tuple(
            self.to_output(0, AgentRef(nt, b), nt) for b in src.prefs[alpha.t][alpha.i]
        )

    def serialize(self) -> str:
        return _map_text("gadget", self.k, self.n)


def _check_source(inst: Instance, k: int, n: int) -> None:
    """DimensionError unless ``inst`` is k by n; InvalidInstanceError for a bad entry."""
    if (inst.k, inst.n) != (k, n):
        raise DimensionError(
            f"instance dims (k={inst.k}, n={inst.n}) do not match the map (k={k}, n={n})"
        )
    inst._better  # the one list check


def _map_text(kind: str, k: int, n: int) -> str:
    return f"{MAP_HEADER}\nkind {kind}\nk {k}\nn {n}\n"


def parse_map(text: str) -> CorrMap3K | GadgetMap:
    """Parse the four-line map file written by ``serialize``."""
    lines = [ln for ln in text.split("\n") if ln.strip()]
    if not lines or lines[0].split() != MAP_HEADER.split():
        raise FormatError(
            f"malformed map file: missing '{MAP_HEADER}' header; re-run kdsm reduce"
        )
    kind = lines[1].split() if len(lines) > 1 else []
    if len(kind) != 2 or kind[0] != "kind":
        raise FormatError("malformed map file: expected a 'kind lift|gadget' line")
    if kind[1] not in ("lift", "gadget"):
        raise FormatError(f"unknown map kind {kind[1]!r}")
    lift = kind[1] == "lift"
    k, n = parse_dims(lines[2:4], min_k=(CorrMap3K if lift else GadgetMap).MIN_K)
    if len(lines) > 4:
        raise FormatError(f"malformed map file: unexpected line {lines[4]!r}")
    return CorrMap3K(n, k) if lift else GadgetMap(k, n)


def lift_3_to_k(inst: Instance, target_k: int) -> tuple[Instance, CorrMap3K]:
    """Embed a 3-type instance into a ``target_k``-type one (k >= 4).

    Output agents are (i, j, t) with flat identifier i*n + j. The diagonal
    agents (i, i, t) for t in {0, 1, 2} carry the input preferences:
    types 0 and 1 point at the next diagonal, type 2 fans out into chain
    agents (i, j', 3) for each acceptable (j', 0). Chain agents forward
    along (i, j, t) -> (i, j, t+1) and the last type closes onto the
    diagonal (j, j, 0); chains for unacceptable (j, 0) stay empty, as do
    all off-diagonal agents of the first three types. Raises DimensionError
    for a wrong k and InvalidInstanceError for a bad list entry.
    """
    if inst.k != 3:
        raise DimensionError(f"lift requires a 3-type input, got k={inst.k}")
    n = inst.n
    cmap = CorrMap3K(n, target_k)
    # slot n of a better row: the entries agent (2, i) accepts
    accept2 = [masks[n] for masks in inst._better[2]]
    rows = []
    for t in range(target_k):
        row = []
        for flat in range(n * n):
            i, j = divmod(flat, n)
            if t <= 1 and i == j:
                row.append(tuple(b * n + b for b in inst.prefs[t][i]))
            elif t == 2 and i == j:
                row.append(tuple(i * n + b for b in inst.prefs[2][i]))
            elif t <= 2:
                row.append(())
            elif accept2[i] >> j & 1:
                if t <= target_k - 2:
                    row.append((i * n + j,))
                else:
                    row.append((j * n + j,))
            else:
                row.append(())
        rows.append(tuple(row))
    return Instance(target_k, n * n, tuple(rows)), cmap


def transport_matching(
    cmap: CorrMap3K, m: Matching, direction: Literal["up", "down"]
) -> Matching:
    """Move a matching across the 3-to-k lift; up then down is the identity.

    Raises TransportFormError for a family of the wrong length or with a
    member outside the source side's [0, n), and ArgumentError for an
    unknown direction.
    """
    n, k = cmap.n, cmap.k_out
    if direction == "up":
        _require_shape(m, 3, n)
        fams = []
        for f in m:
            a, b, c = f.members
            fams.append(
                Family((a * n + a, b * n + b, c * n + c) + (c * n + a,) * (k - 3))
            )
        return Matching.of(fams)
    if direction == "down":
        _require_shape(m, k, cmap.n_out)
        fams = []
        for f in m:
            coords = [divmod(x, n) for x in f.members]
            (a, a2), (b, b2), (c, c2) = coords[0], coords[1], coords[2]
            if a != a2 or b != b2 or c != c2:
                raise TransportFormError(
                    f"family {f.members} does not start on the diagonal"
                )
            if any(coords[t] != (c, a) for t in range(3, k)):
                raise TransportFormError(
                    f"family {f.members} has a malformed chain segment"
                )
            fams.append(Family((a, b, c)))
        return Matching.of(fams)
    raise ArgumentError(f"unknown direction {direction!r}; expected 'up' or 'down'")


def _require_shape(m: Matching, k: int, n: int) -> list[list[int]]:
    """The partner rows of ``m``, kept on it (the admirer check runs once per agent)
    and only read; TransportFormError unless ``m`` fits k types of n agents."""
    if (k, n) not in m._rows:
        try:
            m._rows[k, n] = matching_rows(m, k, n)
        except InvalidFamilyError as exc:
            raise TransportFormError(str(exc)) from exc
    return m._rows[k, n]


def complete_instance(
    inst: Instance, seed: int | None = None
) -> tuple[Instance, GadgetMap]:
    """Build the complete instance whose gadgets simulate ``inst``.

    Preference lists are deterministic: the structured head segments are
    fixed by the construction, and the free tails (agents the construction
    leaves unordered) default to increasing flat-identifier order. Passing
    a ``seed`` shuffles each tail with a per-agent generator, which only
    reorders choices the construction never relies on. Raises DimensionError
    for k < 3, InvalidInstanceError for a bad list entry and ArgumentError
    for a ``seed`` that is neither None nor an int (a bool is not).
    """
    if seed is not None and type(seed) is not int:
        raise ArgumentError(f"seed must be None or an integer, got {seed!r}")
    k, n = inst.k, inst.n
    gm = GadgetMap(k, n).with_source(inst)
    kn = k * n
    nout = gm.n_out
    bnd = gm.boundary

    rows = []
    for t in range(k):
        nt = (t + 1) % k
        row = []
        for flat in range(nout):
            j, rem = divmod(flat, kn)
            ta, ia = divmod(rem, n)
            alpha = AgentRef(ta, ia)
            own_col = alpha.t * n + alpha.i
            if j == 0 and ta == t:
                head = [nt * n + b for b in inst.prefs[t][ia]]
                head += [jp * kn + own_col for jp in range(gm.jsize)]
            elif j == bnd:
                head = [jp * kn + own_col for jp in range(bnd)]
                head += [bnd * kn + c for c in range(kn)]
            else:
                head = [jp * kn + own_col for jp in range(gm.jsize)]
            seen = set(head)
            tail = [x for x in range(nout) if x not in seen]
            if seed is not None:
                random.Random(f"{seed}:{t}:{flat}").shuffle(tail)
            row.append(tuple(head + tail))
        rows.append(tuple(row))
    return Instance(k, nout, tuple(rows)), gm


def free_boundary_agents(gm: GadgetMap, m: Matching) -> list[list[AgentRef]]:
    """Per output type, the boundary-column agents not consumed by the shift.

    List ``t`` holds, in increasing lexicographic order, the boundary
    agents (boundary, alpha, t) whose gadget row ``t`` is unshifted (see
    :func:`induce_up`). Every list has length |A| - |m|, so they zip into families.
    """
    rows = _require_shape(m, gm.k, gm.n)
    return [
        [
            gm.to_output(gm.boundary, alpha, t)
            for alpha in gm.input_agents()
            if alpha.t != t or rows[alpha.t][alpha.i] < 0
        ]
        for t in range(gm.k)
    ]


def induce_up(gm: GadgetMap, m: Matching) -> Matching:
    """Transport a matching of the input instance up to the completed one.

    The result is perfect: non-dummy families mirror the input families,
    each gadget contributes one family per non-boundary column, and the
    leftover boundary agents are zipped into families by rank. A matched
    owner's non-dummy is taken by a non-dummy family, so the gadget's row of
    the owner's type is shifted by one column.
    """
    k = gm.k
    rows = _require_shape(m, k, gm.n)
    fams: list[Family] = []
    for f in m:
        fams.append(
            Family(tuple(gm.non_dummy(AgentRef(t, f.members[t])).i for t in range(k)))
        )
    for alpha in gm.input_agents():
        shifts = [int(t == alpha.t and rows[alpha.t][alpha.i] >= 0) for t in range(k)]
        for j in range(gm.boundary):
            fams.append(
                Family(tuple(gm.to_output(j + shifts[t], alpha, t).i for t in range(k)))
            )
    boundary = free_boundary_agents(gm, m)
    for s in range(len(boundary[0])):
        fams.append(Family(tuple(boundary[t][s].i for t in range(k))))
    return Matching.of(fams)


def induce_down(gm: GadgetMap, m_hat: Matching) -> Matching:
    """Read the input matching off the non-dummy families of ``m_hat``.

    A family joins the result exactly when every member is the non-dummy
    agent of an input agent of the right type and the induced tuple is a
    valid family of the input instance; gadget families with constant
    owner never qualify because the owner has a single type.
    """
    src = gm._require_source()
    _require_shape(m_hat, gm.k, gm.n_out)
    fams = []
    for f in m_hat:
        decoded = [gm.from_output(AgentRef(t, f.members[t])) for t in range(gm.k)]
        if any(j != 0 for j, _ in decoded):
            continue
        if any(alpha.t != t for t, (_, alpha) in enumerate(decoded)):
            continue
        cand = Family(tuple(alpha.i for _, alpha in decoded))
        if not family_violations(src, cand):
            fams.append(cand)
    return Matching.of(fams)


@dataclass(frozen=True)
class CheckReport:
    """Outcome of a structural checker.

    ``applicable`` is False when the check's hypothesis never triggered;
    ``checked`` counts verified conclusions and ``violations`` describes
    each failed one.
    """

    name: str
    applicable: bool
    checked: int
    violations: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return not self.violations


def check_admirer_bound(
    gm: GadgetMap, m_hat: Matching, alpha_star: AgentRef, t_star: int
) -> CheckReport:
    """Check admirer-chain confinement for one gadget.

    Applies when the non-dummy of ``alpha_star`` is matched outside its
    mapped preference prefix (the caller asserts ``m_hat`` is weakly
    stable). Then for every row t and every column j up to (k-1)(k-2),
    the partner of (j, alpha_star, t) must stay in the same gadget at
    column at most j + k - 1.
    """
    if alpha_star.t != t_star:
        raise TypeMismatchError(f"agent {tuple(alpha_star)} is not of type {t_star}")
    k = gm.k
    rows = _require_shape(m_hat, k, gm.n_out)
    nd = gm.non_dummy(alpha_star)
    if rows[nd.t][nd.i] in {b.i for b in gm.mapped_prefix(alpha_star)}:
        return CheckReport("admirer-bound", False, 0, ())
    violations = []
    checked = 0
    max_j = (k - 1) * (k - 2)
    for t in range(k):
        for j in range(max_j + 1):
            a = gm.to_output(j, alpha_star, t)
            qi = rows[t][a.i]
            q = a if qi < 0 else AgentRef((t + 1) % k, qi)  # unmatched: the agent itself
            checked += 1
            jq, owner = gm.from_output(q)
            if qi < 0 or owner != alpha_star or jq > j + k - 1:
                violations.append(
                    f"partner of (j={j}, alpha={tuple(alpha_star)}, t={t}) is"
                    f" ({q.t}, {q.i}), outside columns 0..{j + k - 1} of the gadget"
                )
    return CheckReport("admirer-bound", True, checked, tuple(violations))


def check_gadget_confinement(gm: GadgetMap, m_hat: Matching) -> CheckReport:
    """Check that families touching a foreign non-dummy stay in its gadget.

    For every family of ``m_hat`` and every position t* holding a column-0
    agent of matching type whose successor avoids the mapped preference
    prefix, the whole family must consist of that gadget's agents with
    column at most (k-1)*s at cyclic offset s. The caller asserts weak
    stability of ``m_hat``.
    """
    k = gm.k
    _require_shape(m_hat, k, gm.n_out)  # the walk below reads the checked families
    checked = 0
    violations = []
    for f in m_hat:
        decoded = [gm.from_output(AgentRef(t, f.members[t])) for t in range(k)]
        for t_star in range(k):
            j0, owner = decoded[t_star]
            if j0 != 0 or owner.t != t_star:
                continue
            # owner has type t_star, so its mapped prefix holds type t_star + 1
            if f.members[(t_star + 1) % k] in {b.i for b in gm.mapped_prefix(owner)}:
                continue
            checked += 1
            for s in range(k):
                js, owner_s = decoded[(t_star + s) % k]
                if owner_s != owner or js > (k - 1) * s:
                    violations.append(
                        f"family {f.members}: offset {s} from position {t_star}"
                        f" leaves the gadget of {tuple(owner)} or exceeds column"
                        f" {(k - 1) * s}"
                    )
    return CheckReport("gadget-confinement", checked > 0, checked, tuple(violations))


def check_partner_correspondence(
    gm: GadgetMap, m_hat: Matching, m: Matching
) -> CheckReport:
    """Check that matched-in-prefix non-dummies mirror the induced matching.

    ``m`` must be the matching induced down from ``m_hat``, and the caller
    asserts ``m_hat`` is weakly stable. For every input agent whose
    non-dummy partner lies in the mapped preference prefix, that partner
    must be exactly the non-dummy of the agent's partner under ``m``.
    """
    src = gm._require_source()
    rows_hat = _require_shape(m_hat, gm.k, gm.n_out)
    rows = _require_shape(m, gm.k, gm.n)
    checked = 0
    violations = []
    for alpha in src.agents():
        nt = (alpha.t + 1) % gm.k
        p = rows_hat[alpha.t][gm.non_dummy(alpha).i]
        if p not in {b.i for b in gm.mapped_prefix(alpha)}:
            continue
        checked += 1
        q = rows[alpha.t][alpha.i]
        expected = gm.to_output(0, alpha if q < 0 else AgentRef(nt, q), nt)
        if p != expected.i:
            violations.append(
                f"non-dummy of {tuple(alpha)} matched to ({nt}, {p}),"
                f" expected ({expected.t}, {expected.i})"
            )
    return CheckReport("partner-correspondence", checked > 0, checked, tuple(violations))
