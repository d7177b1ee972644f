"""Orbits of automorphism groups on spin structures, walked fibre-wise
over the cyclic sets, and the keys read off them.

A spin structure over a graph is a cyclic set with a sign on each
component of the graph opened along the edges outside it, so the spin
structures fibre over the cyclic sets, with ``2^{c_+}`` sign vectors
above each (:func:`~spinmod.spin.spin_fibres`).  An automorphism carrying
a cyclic set ``P`` onto ``Q`` carries the fibre above ``P`` onto the one
above ``Q``, so the orbits are walked fibre-wise (:func:`spin_orbits`):
one walk of the group over the masks gives each cyclic orbit, its least
mask ``P``, the stabilizer ``Stab(P)`` and one transporter per mask, an
action class carrying ``P`` onto it.  Only ``Stab(P)`` is walked over
the sign vectors above ``P``, and every other mask's table entries are
those vectors folded through its transporter
(:class:`~spinmod.morphisms.SpinCarry`); a fibre of one structure
(``c_+ = 0``) is not walked at all.  Each carry takes the fibre's own
decomposition as the proof that its set is cyclic, and the image's
decomposition as the proof of the image: over a graph whose fibres are
all listed, every image's is memoised already and no boundary is walked;
for one structure's orbit (:func:`spin_orbit`) an image met first is
decomposed, walking its boundary once.  Masks and sign vectors both go
through :func:`~spinmod.morphisms.orbit_walk`.  This is the package's
one walk of a group over spin structures: the spin poset, spin keys,
the order test, refinement and tropical fibers all read it.

A spin structure's key extends the graph's certificate hash with the
least encoding among the members of its orbit (:func:`spin_orbit_keys`).
The encoding starts with the cyclic set's, so each mask is encoded once,
and only over the masks whose encoding is the least in their orbit are
the members' signs zipped onto the mask's component positions.
"""

from __future__ import annotations

from . import cycles, morphisms
from .cycles import EdgeSet
from .errors import VerificationError
from .morphisms import (SpinCarry, _certificate_hash, _cyclic_encoding,
                        _hashed)
from .spin import SpinStructure

# Decompositions, canonical forms, groups and keys are looked up on their
# own modules at each call, so that a wrapper set on those modules, such
# as perfbench's tracer, also sees the calls made from here.


class SpinOrbits:
    """The orbits of a group on spin structures, walked fibre-wise over
    the cyclic sets (:func:`spin_orbits`).

    ``reps`` holds each orbit's representative as ``(mask, signs)``
    data and ``stabilizers`` the action classes fixing it, as
    :func:`~spinmod.morphisms.orbit_walk` returns them; ``table`` maps
    each mask to a dict from the sign vectors above it to their orbit
    index, ``mask_orbits`` lists the masks of each cyclic orbit and
    ``above`` maps each walked mask to its fibre as given,
    ``(cyclic_set, dec, signs)``.
    ``images`` counts the images the walk computed (masks and sign
    vectors), ``carries`` the :class:`SpinCarry` objects it built and
    ``single`` the cyclic orbits whose fibre is one structure."""

    __slots__ = ("reps", "stabilizers", "table", "mask_orbits", "above",
                 "images", "carries", "single")

    def representatives(self):
        """Each orbit's representative as a spin structure, built over
        its fibre's cyclic set and decomposition, in orbit order."""
        above = self.above
        return [SpinStructure.over(*above[mask][:2], signs)
                for mask, signs in self.reps]

    def orbit(self, mask, signs):
        """The orbit index of the structure with this data, or ``None``
        when the walk did not meet it."""
        fibre = self.table.get(mask)
        return None if fibre is None else fibre.get(signs)

    def entries(self):
        """The number of structures in the orbit table."""
        return sum(map(len, self.table.values()))


def spin_orbits(group, fibres):
    """The orbits of ``group`` on spin structures, fibred over the
    cyclic sets, as :class:`SpinOrbits`.

    ``fibres`` lists cyclic sets as ``(cyclic_set, dec, signs)``: the
    set, its decomposition and sign vectors above it.  One walk of the
    group over the masks, in the order given, gives each cyclic orbit
    with its first mask ``P``, its stabilizer ``H`` and, for every mask
    ``Q`` of the orbit, a transporter: the first action class met that
    carries ``P`` onto ``Q``.  An element carrying ``P`` onto ``Q`` is
    the transporter times an element of ``H``, so the orbits of spin
    structures over the orbit of ``P`` are the orbits of ``H`` on the
    sign vectors above ``P`` (orbit-stabilizer).  Only ``H`` is walked
    over the listed sign vectors above ``P``, by the same
    :func:`~spinmod.morphisms.orbit_walk` as the masks, each vector
    folded through the carry of ``(a, P)`` built once per action class
    ``a`` of ``H``; the first vector met from an ``H``-orbit represents
    it and keeps the classes that fix it, and its orbit index is shifted
    past the orbits of the fibres walked before.  Each other mask's
    table entries are the walked vectors folded through the carry of its
    transporter, which must land on that mask.  Above a set with
    ``c_+ = 0`` the one sign vector is zero, and so is its image on
    every mask of the orbit, so nothing is folded there and the
    stabilizer is ``H``.

    When the masks are listed sorted and with every sign vector above
    each, sorted, each representative is the least ``(mask, signs)`` of
    its orbit and the orbits come in the order of their
    representatives, as a walk over every structure with the whole
    group would give them.  A mask without a transporter, or a
    transporter that does not carry ``P`` onto its mask, is a
    :class:`VerificationError`.
    """
    actions = group.actions
    above = {fibre[0].mask: fibre for fibre in fibres}
    mask_reps, mask_orbit, mask_stabilizers, transporters = \
        group.mask_orbits(above)
    out = object.__new__(SpinOrbits)
    out.reps, out.stabilizers, out.table, out.above = [], [], {}, above
    out.mask_orbits = [[] for _ in mask_reps]
    for q, k in mask_orbit.items():
        out.mask_orbits[k].append(q)
    out.images = len(actions) * len(mask_reps)
    out.carries = out.single = 0
    shared = {}
    for least, stabilizer, masks in zip(mask_reps, mask_stabilizers,
                                        out.mask_orbits):
        p, dec, signs = above[least]
        first = len(out.reps)
        if not dec.c_plus and signs:
            (zero,) = signs
            fibre = {zero: first}  # read only, so shared
            out.table.update((q, fibre) for q in masks)
            out.reps.append((least, zero))
            out.stabilizers.append(shared.setdefault(stabilizer, stabilizer))
            out.single += 1
            continue
        walkers = [(c, SpinCarry(actions[c], p, dec).fold) for c in stabilizer]
        reps, orbit_of, stabilizers, _ = morphisms.orbit_walk(signs, walkers)
        out.reps += [(least, sigma) for sigma in reps]
        out.stabilizers += [shared.setdefault(t, t) for t in stabilizers]
        fibre = out.table[least] = {sigma: first + k
                                    for sigma, k in orbit_of.items()}
        out.carries += len(walkers)
        out.images += len(walkers) * len(reps)
        for q in masks:
            if q == least:
                continue
            c = transporters.get(q)
            if c is None:
                raise VerificationError(
                    "a cyclic set has no transporter from the least set "
                    "of its orbit", (morphisms.canonical_key(group.graph),
                                     f"P={least:x}", f"image={q:x}"))
            carry = SpinCarry(actions[c], p, dec)
            if carry.mask != q:
                raise VerificationError(
                    "a transporter does not carry the least set of its "
                    "orbit onto its cyclic set", carry.witnesses())
            out.table[q] = {carry.fold(sigma): j
                            for sigma, j in fibre.items()}
            out.carries += 1
            out.images += len(fibre)
    return out


def spin_orbit(graph, spin):
    """The orbit of one spin structure under the full automorphism
    group, walked fibre-wise: :func:`spin_orbits` over its cyclic set
    and its signs alone."""
    return spin_orbits(morphisms.automorphisms(graph),
                       [(spin.P, spin.dec, (spin.signs,))])


def _component_positions(graph, pos, mask):
    """The canonical positions of each component of the graph opened
    along the edges outside ``mask``, each sorted, in component
    order."""
    dec = cycles.pbar_decompose(graph, EdgeSet(graph, mask))
    members = [[] for _ in dec.genera]
    for v, i in zip(graph.vertices, dec.component):
        members[i].append(pos[v])
    return [tuple(sorted(m)) for m in members]


def spin_orbit_keys(graph, orbits):
    """Key of each orbit of a fibred walk (:class:`SpinOrbits`), by orbit
    index.

    A spin structure is encoded as its cyclic set's encoding
    (:func:`~spinmod.morphisms._cyclic_encoding`) and the sorted pairs
    of each component's canonical positions with its sign; an orbit's
    key digests the least encoding among its members after the graph's
    certificate, as :func:`~spinmod.morphisms.orbit_keys` does.  Every
    orbit over a cyclic orbit has members over each of its masks, and
    encodings compare their cyclic part first, so the least lies over
    the masks whose cyclic encoding is the least in the cyclic orbit.
    Each mask is encoded once, and only over those masks are the
    component positions read and each member's signs zipped onto
    them."""
    _, pos = morphisms.canonical_form(graph)
    best = [None] * len(orbits.reps)
    for masks in orbits.mask_orbits:
        codes = [_cyclic_encoding(graph, pos, q) for q in masks]
        least = min(codes)
        for q, code in zip(masks, codes):
            if code != least:
                continue
            comps = _component_positions(graph, pos, q)
            for signs, j in orbits.table[q].items():
                here = (least, tuple(sorted(zip(comps, signs))))
                if best[j] is None or here < best[j]:
                    best[j] = here
    base = _certificate_hash(graph)
    return [_hashed(base.copy(), [code]).hexdigest() for code in best]
