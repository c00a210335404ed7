"""Per-layer spans recorded from outside the package.

``Tracer.install`` wraps the public functions of each layer and binds the
wrapper under every name a ``bsgate`` module imported the function by, so
calls between modules are seen too; ``uninstall`` puts the originals
back.  Nothing in ``src/`` knows about it.  A span is
``[name, start, end, parent index, invocation index]``; spans stay in
memory and are written out once, after the run.  A span's self time is
its duration minus that of its child spans.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
import types
from collections import defaultdict
from pathlib import Path

# (module, function, span name); several functions may share a span name
WRAPPED = (
    ("cli", "main", "cli.main"),
    ("parser", "parse_complex", "parser.parse_complex"),
    ("parser", "print_complex", "parser.print_complex"),
    ("parser", "parse_weights", "parser.parse_weights"),
    ("surface", "validate", "surface.validate"),
    ("surface", "derive_roles", "surface.derive_roles"),
    ("weights", "build_system", "weights.build_system"),
    ("weights", "feasible", "weights.feasible"),
    ("weights", "verify_certificate", "weights.verify_certificate"),
    ("weights", "brute_force", "weights.brute_force"),
    ("weights", "criterion", "weights.criterion"),
    ("simplex", "phase_one", "simplex.phase_one"),
    ("splitting", "split", "splitting.split"),
    ("splitting", "safe_split", "splitting.safe_split"),
    ("splitting", "run_plan", "splitting.run_plan"),
    ("assembly", "assemble", "assembly.assemble"),
    ("gen", "random_complex", "gen.random_complex"),
    ("charts", "parse_grid", "charts.parse_grid"),
    ("charts", "print_grid", "charts.print_grid"),
    ("charts", "check_box", "charts.check"),
    ("charts", "check_cylinder", "charts.check"),
    ("charts", "purify_box", "charts.purify"),
    ("charts", "purify_cylinder", "charts.purify"),
    ("charts", "extend_cell", "charts.purify"),
    ("charts", "holonomy_map", "charts.holonomy_map"),
)
SPANS = tuple(dict.fromkeys(span for _, _, span in WRAPPED))
KINDS = ("neg-tisc", "pos-tisc", "isc")

# (name, unit); a traced run reports every one, 0 where a layer is idle
COUNTS = (
    [(f"{span}.calls", "count") for span in SPANS]
    + [("weights.system.vars", "count"), ("weights.system.rows", "count"),
       ("weights.system.nnz", "count"), ("gen.sectors", "count"),
       ("assembly.faces", "count"), ("charts.grid_bytes", "bytes"),
       ("charts.holonomy.rk4_steps", "count")])
TIMES = ([(f"{span}.self_s", "s") for span in SPANS]
         + [(f"weights.feasible.{kind}.total_s", "s") for kind in KINDS])
RATIOS = (("splitting.criterion_per_step", "ratio"),
          ("splitting.under_fallback_ratio", "ratio"))
PER_LAYER = tuple(COUNTS) + tuple(TIMES) + RATIOS + (
    ("trace.overhead_s", "s"), ("trace.spans", "count"))


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.invocation = -1
        self.counts: dict[str, int] = defaultdict(int)
        self.kind_s: dict[str, float] = defaultdict(float)
        self.solved: list[tuple] = []  # (system, certificate, invocation)
        self.holonomy: list[tuple] = []  # (args, kwargs, z1)
        self._undo: list[tuple] = []

    # -- wrapping ------------------------------------------------------------

    def install(self) -> None:
        hooks = {"weights.feasible": self._on_feasible,
                 "weights.criterion": self._on_criterion,
                 "splitting.split": self._on_split,
                 "splitting.run_plan": self._on_run_plan,
                 "gen.random_complex": self._on_random_complex,
                 "assembly.assemble": self._on_assemble,
                 "charts.parse_grid": self._on_parse_grid,
                 "charts.print_grid": self._on_print_grid,
                 "charts.holonomy_map": self._on_holonomy}
        layers = {m: importlib.import_module(f"bsgate.{m}")
                  for m, _, _ in WRAPPED}
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == "bsgate"
                                         or name.startswith("bsgate."))]
        for module, func, span in WRAPPED:
            orig = getattr(layers[module], func, None)
            if orig is None:  # a later version may drop the function
                continue
            wrapper = self._wrap(span, orig, hooks.get(span))
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is orig:
                        setattr(mod, attr, wrapper)
                        self._undo.append((mod, attr, orig))

    def uninstall(self) -> None:
        for mod, attr, orig in reversed(self._undo):
            setattr(mod, attr, orig)
        self._undo.clear()

    def _wrap(self, span: str, fn, hook):
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = [span, 0.0, 0.0, stack[-1] if stack else -1,
                   self.invocation]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if hook is not None:
                hook(rec, args, kwargs, result)
            return result

        return wrapper

    # -- counters at the layer boundaries -------------------------------------

    def _within(self, span: str) -> bool:
        return any(self.spans[i][0] == span for i in self.stack)

    def _on_feasible(self, rec, args, kwargs, cert) -> None:
        system = args[0] if args else kwargs["system"]
        forms = system.equalities + system.inequalities
        self.counts["weights.system.vars"] += len(system.variables)
        self.counts["weights.system.rows"] += len(forms)
        self.counts["weights.system.nnz"] += sum(len(f.coeffs) for f in forms)
        self.kind_s[system.kind] += rec[2] - rec[1]
        self.solved.append((system, cert, self.invocation))

    def _on_criterion(self, rec, args, kwargs, result) -> None:
        if self._within("splitting.run_plan"):
            self.counts["criterion_in_plan"] += 1

    def _on_split(self, rec, args, kwargs, result) -> None:
        choice = args[2] if len(args) > 2 else kwargs.get("choice")
        if choice == "under" and self.stack and \
                self.spans[self.stack[-1]][0] == "splitting.safe_split":
            self.counts["under_attempts"] += 1

    def _on_run_plan(self, rec, args, kwargs, result) -> None:
        self.counts["plan_steps"] += len(result.steps)

    def _on_random_complex(self, rec, args, kwargs, cx) -> None:
        self.counts["gen.sectors"] += len(cx.sectors)

    def _on_assemble(self, rec, args, kwargs, asm) -> None:
        self.counts["assembly.faces"] += sum(len(c.faces)
                                             for c in asm.components)

    def _on_parse_grid(self, rec, args, kwargs, grid) -> None:
        text = args[0] if args else kwargs["text"]
        self.counts["charts.grid_bytes"] += len(text)  # ASCII

    def _on_print_grid(self, rec, args, kwargs, text) -> None:
        self.counts["charts.grid_bytes"] += len(text)  # ASCII

    def _on_holonomy(self, rec, args, kwargs, z1) -> None:
        self.holonomy.append((args, kwargs, z1))  # counted in layer_metrics

    def _count_rk4_steps(self) -> int:
        """Replay every traced ``holonomy_map`` call, after the pass and
        outside every span, counting calls of the functions defined inside
        it: the slope that classical RK4 evaluates four times a step."""
        from bsgate import charts
        inner = {c for c in charts.holonomy_map.__code__.co_consts
                 if isinstance(c, types.CodeType)}
        evaluations = 0

        def count(frame, event, arg):
            nonlocal evaluations
            if frame.f_code in inner:
                evaluations += 1

        for args, kwargs, z1 in self.holonomy:
            sys.settrace(count)
            try:
                again = charts.holonomy_map(*args, **kwargs)
            finally:
                sys.settrace(None)
            if again != z1:
                raise RuntimeError("holonomy_map replay gave another z1")
        self.holonomy.clear()
        return evaluations // 4

    # -- results ---------------------------------------------------------------

    def layer_metrics(self) -> dict[str, float]:
        """Counts and self times per span name; overhead is added by the
        caller, which alone has the untraced timing."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        calls: dict[str, int] = defaultdict(int)
        self_s: dict[str, float] = defaultdict(float)
        for i, (name, start, end, _, _) in enumerate(self.spans):
            calls[name] += 1
            self_s[name] += (end - start) - child[i]
        if self.holonomy:
            self.counts["charts.holonomy.rk4_steps"] += self._count_rk4_steps()
        out: dict[str, float] = {}
        for span in SPANS:
            out[f"{span}.calls"] = calls[span]
            out[f"{span}.self_s"] = self_s[span]
        for name, _ in COUNTS:
            out.setdefault(name, self.counts[name])
        for kind in KINDS:
            out[f"weights.feasible.{kind}.total_s"] = self.kind_s[kind]
        steps = self.counts["plan_steps"]
        out["splitting.criterion_per_step"] = (
            self.counts["criterion_in_plan"] / steps if steps else 0.0)
        safe = calls["splitting.safe_split"]
        out["splitting.under_fallback_ratio"] = (
            self.counts["under_attempts"] / safe if safe else 0.0)
        out["trace.spans"] = len(self.spans)
        return out

    def unverified(self) -> set[int]:
        """Invocations with a certificate from feasible() that fails
        verification; ``detect --kind criterion`` never checks its own."""
        from bsgate.weights import verify_certificate
        return {inv for system, cert, inv in self.solved
                if not verify_certificate(system, cert)}

    def write(self, path: Path, invocations: list[str]) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            fh.write("# span start_s end_s parent invocation\n")
            for name, start, end, parent, inv in self.spans:
                fh.write(f"{name} {start:.9f} {end:.9f} {parent} "
                         f"{invocations[inv] if inv >= 0 else '-'}\n")
