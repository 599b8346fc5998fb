"""Span tracing of one query at a time, from outside the program.

``Tracer.install()`` replaces public names of the ``isocone`` modules at
the site where the code under test looks them up (a module attribute such
as ``isocone.cli.member``, or a class attribute such as
``isocone.linalg.IncrementalSystem.push``) with wrappers that record one
span per call: name, start, end, parent span and query id.  The wrappers
pass arguments and return values through unchanged; ``uninstall()``
restores the originals.  Spans stay in memory until ``write()``.

Each site belongs to a layer.  A layer's self time is the duration of its
spans minus the part covered by their child spans, so the self times of
all layers add up to the duration of the root ``cli`` spans.
"""

import gzip
import importlib
import json
from collections import defaultdict
from time import perf_counter

# (module, class or None, attribute, layer)
SITES = (
    ("isocone.cli", None, "run", "cli"),
    ("isocone.io", None, "parse_manifold", "io.parse"),
    ("isocone.io", None, "parse_flatsurface", "io.parse"),
    ("isocone.io", None, "serialize_flatsurface", "io.serialize"),
    ("isocone.io", None, "Triangulation3", "cone3.build"),
    ("isocone.cli", None, "BoundaryTrack", "cone3.build"),
    ("isocone.cli", None, "member", "cone3.search"),
    ("isocone.cli", None, "verify_witness", "cone3.verify"),
    ("isocone.cone3", "Triangulation3", "w4_subspace", "cone3.subspace"),
    ("isocone.cone3", "Triangulation3", "omega_fast", "cone3.form"),
    ("isocone.cli", None, "compute_cone", "cone3.cone"),
    ("isocone.cone3", "Triangulation3", "isotropy_check", "cone3.cone"),
    ("isocone.linalg", None, "rref", "linalg.rref"),
    ("isocone.linalg", None, "kernel_basis", "linalg.kernel_basis"),
    ("isocone.linalg", "IncrementalSystem", "push", "linalg.push"),
    ("isocone.linalg", "IncrementalSystem", "rollback", "linalg.rollback"),
    ("isocone.io", None, "FlatSurface", "flatsurf.build"),
    ("isocone.cli", None, "delaunay", "flatsurf.delaunay"),
    ("isocone.cli", None, "random_tangent", "flatsurf.tangent"),
    ("isocone.flatsurf", None, "tangent_basis", "flatsurf.tangent"),
    ("isocone.flatsurf", "FlatSurface", "adapted", "flatsurf.adapted"),
    ("isocone.cli", None, "omega_thurston", "flatsurf.pairing"),
    ("isocone.cli", None, "omega_hessian", "flatsurf.pairing"),
    ("isocone.cli", None, "kahler_pairing_numeric", "flatsurf.quadrature"),
    ("isocone.cli", None, "omega_homological", "homology"),
    ("isocone.flatsurf", "FlatSurface", "dual_track", "track"),
    ("isocone.track", "TrainTrack", "thurston_form", "track"),
)

LAYERS = tuple(dict.fromkeys(site[3] for site in SITES))


def site_name(modname, clsname, attr):
    """The span name of a site, e.g. ``isocone.linalg.IncrementalSystem.push``."""
    return ".".join(filter(None, (modname, clsname, attr)))


class Tracer:
    """Records spans of the calls made while a query id is set."""

    def __init__(self):
        self.spans = []         # (name, start, end, parent, qid)
        self.qid = None
        self._stack = [None]
        self._saved = []
        self.push_ok = 0        # accepted IncrementalSystem.push calls
        self.parse_bytes = 0    # text handed to the io parsers
        self.vectors = 0        # choice vectors swept by cone3.cone sites

    def install(self):
        for modname, clsname, attr, _ in SITES:
            owner = importlib.import_module(modname)
            if clsname:
                owner = getattr(owner, clsname)
            orig = owner.__dict__[attr]
            self._saved.append((owner, attr, orig))
            setattr(owner, attr,
                    self._wrap(orig, site_name(modname, clsname, attr), attr))

    def uninstall(self):
        while self._saved:
            owner, attr, orig = self._saved.pop()
            setattr(owner, attr, orig)

    def _wrap(self, fn, name, attr):
        spans, stack = self.spans, self._stack

        def wrapper(*args, **kwargs):
            if self.qid is None:
                return fn(*args, **kwargs)
            if attr == "compute_cone" and kwargs.get("choice_iter"):
                kwargs["choice_iter"] = self._counted(kwargs["choice_iter"])
            elif attr == "isotropy_check":
                self.vectors += 1
            elif attr in ("parse_manifold", "parse_flatsurface"):
                self.parse_bytes += len(args[0].encode())
            sid = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(sid)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[sid] = (name, start, end, parent, self.qid)
            if attr == "push" and result:
                self.push_ok += 1
            return result
        return wrapper

    def _counted(self, it):
        for item in it:
            self.vectors += 1
            yield item

    def layer_totals(self):
        """Per layer: [calls, self seconds]."""
        layer_of = {site_name(m, c, a): layer for m, c, a, layer in SITES}
        child = defaultdict(float)
        for name, start, end, parent, _ in self.spans:
            if parent is not None:
                child[parent] += end - start
        totals = {layer: [0, 0.0] for layer in LAYERS}
        for sid, (name, start, end, _, _) in enumerate(self.spans):
            t = totals[layer_of[name]]
            t[0] += 1
            t[1] += (end - start) - child[sid]
        return totals

    def write(self, path, queries):
        """Write the query table and every span as gzip'd JSON lines."""
        with gzip.open(path, "wt") as fh:
            for q in queries:
                fh.write(json.dumps({"query": q}) + "\n")
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
