"""Line-oriented text formats for machines, environments, schemes,
trajectories, and optimizer results.

Every format is diffable UTF-8 text: `#` starts a comment, blank lines
are ignored, tokens follow shell quoting rules.  Files may start with a
`version 1` header; writers always emit one.  Writers are canonical (fixed
line order, fixed real formatting), so save -> load -> save reproduces a
file byte for byte.  Readers build from one pass, _directives, which holds
the line rules all formats share; writers render through one function,
_text, its mirror, and write through _write, the mirror of _read.  A
scheme's source and filter kinds are stated once, in the tables _SOURCES
and _FILTERS (each kind's class, how it is read and written, and the phrase
`describe` prints), the op fields of each aggregation mode once, in
scheme.AGGREGATION_MODES, with its phrase in _AGGREGATIONS; the scheme
reader and writer and kind_phrase all drive off them.  Env kinds are stated
once, in _ENVS, which env_to_text, parse_env_text and env_description read.

Reals are written as the shortest string that parses back to the same
double, with integral values written as plain integers.

The full grammar of each format lives in docs/formats.md.
"""

from __future__ import annotations

import math
import re
import shlex
from pathlib import Path

from .environment import (
    DeliveryConfig,
    DeliveryGridEnv,
    LabelledEnv,
    RestaurantConfig,
    RestaurantEnv,
    Trajectory,
)
from .errors import PluralismError
from .formula import check_alphabet, parse_formula, print_formula
from .machine import RewardMachine, Transition, require_valid
from .optimize import PolicyResult
from .scheme import (
    AGGREGATION_MODES,
    Aggregation,
    AnytimeFilter,
    AtomCountSource,
    EventCountFilter,
    LongTermFilter,
    MachineSource,
    MarkovTableSource,
    PeriodicFilter,
    Scheme,
    StakeholderStatus,
    StatusFunction,
    status_table,
)


class FormatError(PluralismError):
    """A file (or text) does not conform to its grammar."""

    def __init__(self, message: str, line: int = None, path: str = None):
        where = ""
        if path is not None:
            where = f"{path}:"
        if line is not None:
            where += f"{line}:"
        if where:
            where += " "
        super().__init__(where + message)
        self.line = line
        self.path = path


class SchemaVersionError(FormatError):
    """The file declares a format version this code does not read."""


def _read(path: Path) -> str:
    """The text of the file every loader reads; bytes that are not UTF-8
    are a FormatError that names the path."""
    try:
        return path.read_text(encoding="utf-8")
    except UnicodeDecodeError as err:
        raise FormatError(f"not UTF-8 text (byte {err.start})", path=str(path)) from None


def _write(path, text: str) -> None:
    """Write `text` to `path` as UTF-8 with `\n` line ends, whatever the
    locale: the text every loader reads back."""
    Path(path).write_bytes(text.encode("utf-8"))


class _Guard(str):
    """A printed guard formula, a token _text writes in double quotes."""


def _token(token) -> str:
    """`token` (a string, or an int) as _logical_lines reads it back: as it
    is where the reader would give back just it, else shell-quoted.  A
    token with a line break cannot be written."""
    if isinstance(token, _Guard):
        return f'"{token}"'
    token = str(token)
    if token.splitlines() not in ([], [token]):
        raise ValueError(f"a token with a line break cannot be written: {token!r}")
    # A quote or a backslash never reads back as itself (and alone, it
    # does not read at all), so only a token without them can stay bare.
    if not any(c in token for c in "'\"\\") and _split_line(token) == [token]:
        return token
    return shlex.quote(token)


def _text(lines) -> str:
    """The file text of `lines`, directives (keyword, *tokens): the
    `version 1` header, then one line per directive, tokens as _token
    writes them."""
    return "".join(" ".join(map(_token, line)) + "\n" for line in [("version", 1), *lines])


def format_real(x: float) -> str:
    """Shortest exact decimal; integral doubles print as plain integers
    (-0.0 as `-0`), and inf and nan (a score can overflow) as `inf` and
    `nan`."""
    try:
        if x == int(x) and abs(x) < 1e16:
            return str(int(x)) if x or math.copysign(1.0, x) > 0 else "-0"
    except (OverflowError, ValueError):
        pass
    return repr(x)


_SHLEX_SPECIAL = frozenset("'\"\\#")

# One piece of a word: an unquoted run, `\` and the character it escapes,
# a double-quoted run (where `\"` and `\\` are escapes and any other `\x`
# keeps its backslash), or a single-quoted run.
_PIECE = r"""[^ \t'"\\#]+|\\.|"[^"\\]*(?:\\.[^"\\]*)*"|'[^']*'"""
_PIECES = re.compile(_PIECE, re.DOTALL)
_DOUBLE_QUOTED_ESCAPE = re.compile(r'\\([\\"])')
# A word is pieces with no gap between them, and `#` outside quotes ends
# the word and the line.  Scanned from the start of a line, each match is
# a word, an empty string (at a comment or the end), or a quote or
# backslash that opens no piece: an unclosed quote, or a final `\`.
_WORDS = re.compile(rf"""[ \t]*((?:{_PIECE})+|["'\\]|)(?:#.*)?""", re.DOTALL)
_UNCLOSED = frozenset(("'", '"', "\\"))


def _unquote(piece) -> str:
    """The text a _PIECES match stands for."""
    text = piece[0]
    if text[0] == "\\":
        return text[1]
    if text[0] == "'":
        return text[1:-1]
    if text[0] == '"':
        return _DOUBLE_QUOTED_ESCAPE.sub(r"\1", text[1:-1])
    return text


def _split_line(raw: str) -> list:
    """The tokens of `raw`, one line of a file, as
    `shlex.split(raw, comments=True)` gives them.  A line with no quote,
    backslash or `#` is split at spaces and tabs alone, the only shlex
    separators a line can hold: not by `str.split()`, which also splits at
    characters such as \\xa0 that shlex keeps inside a token.  Any other
    line is split into _WORDS, and a word with a quote or a backslash is
    unquoted piece by piece."""
    if _SHLEX_SPECIAL.isdisjoint(raw):
        return [token for token in raw.replace("\t", " ").split(" ") if token]
    words = _WORDS.findall(raw)
    if not _UNCLOSED.isdisjoint(words):
        return shlex.split(raw, comments=True)  # raises the error that names it
    return [word if _SHLEX_SPECIAL.isdisjoint(word) else _PIECES.sub(_unquote, word)
            for word in words if word]


def _logical_lines(text: str, path: str = None) -> list:
    """[(line number, tokens)] with comments, blank lines and an optional
    `version 1` header dropped; any other version is rejected."""
    out = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        try:
            tokens = _split_line(raw)
        except ValueError as err:
            raise FormatError(str(err), line=lineno, path=path)
        if tokens:
            out.append((lineno, tokens))
    if out and out[0][1][0] == "version":
        lineno, tokens = out.pop(0)
        if len(tokens) != 2:
            raise FormatError("version line needs exactly one argument", lineno, path)
        if tokens[1] != "1":
            raise SchemaVersionError(f"unsupported format version '{tokens[1]}'", lineno, path)
    return out


def _directives(lines: list, path: str, arity: dict) -> dict:
    """{keyword: [(line number, args)]}, each list in file order.

    `arity` maps every keyword the format reads to its arguments, as in
    `"NAME [init]"`: a bracketed word is optional, and `[NAME...]` takes
    any number.  Any other keyword or argument count is an error naming
    the line.  This is the only loop over directive lines; the readers
    build from its result with _once and _indexed.
    """
    found = {key: [] for key in arity}
    for lineno, tokens in lines:
        key, args = tokens[0], tokens[1:]
        if key not in arity:
            raise FormatError(f"unknown directive '{key}'", lineno, path)
        usage = arity[key]
        words = usage.count(" ") + 1
        most = math.inf if usage.endswith("...]") else words
        if not words - usage.count("[") <= len(args) <= most:
            raise FormatError(f"expected `{key} {usage}`", lineno, path)
        found[key].append((lineno, args))
    return found


def _once(found: dict, key: str, path: str, default: list = None) -> tuple:
    """(line number, args) of the one `key` line, which is required unless
    a `default` for its args is given (the line number is then None)."""
    entries = found.pop(key)
    if len(entries) > 1:
        raise FormatError(f"duplicate '{key}' line", entries[1][0], path)
    if not entries and default is None:
        raise FormatError(f"missing '{key}' line", path=path)
    return entries[0] if entries else (None, default)


def _indexed(found: dict, key: str, n: int, path: str, every: str = None) -> dict:
    """{i: (line number, args after i)} of the `key i ...` lines: each i in
    1..n at most once, and every i once when `every` names what i counts."""
    out: dict = {}
    for lineno, args in found.pop(key):
        i = _parse_int(args[0], lineno, path)
        if not 1 <= i <= n:
            raise FormatError(f"'{key} {i}' is outside 1..{n}", lineno, path)
        if i in out:
            raise FormatError(f"duplicate '{key} {i}' line", lineno, path)
        out[i] = (lineno, args[1:])
    gap = every and next((i for i in range(1, n + 1) if i not in out), None)
    if gap:
        raise FormatError(f"no '{key}' line for {every} {gap}", path=path)
    return out


def _at(line, path: str, make, *args, **kwargs):
    """make(*args, **kwargs), a ValueError or OSError it raises reported at
    `line`: a line number, or {field: line number} to name the line of the
    field a FieldError tags."""
    try:
        return make(*args, **kwargs)
    except (ValueError, OSError) as err:
        if isinstance(line, dict):
            line = line.get(getattr(err, "field", None))
        raise FormatError(str(err), line, path)


def _plain_number(convert, token: str):
    """convert(token), float or int, refusing what they read in a number
    but no number token holds: `_` between digits, non-ASCII digits, and
    whitespace around the number."""
    if not token.isascii() or "_" in token or token != token.strip():
        raise ValueError(token)
    return convert(token)


def _parse_real(token: str, lineno: int, path: str) -> float:
    try:
        value = _plain_number(float, token)
    except ValueError:
        raise FormatError(f"not a number: '{token}'", lineno, path)
    if not math.isfinite(value):
        raise FormatError(f"not a finite number: '{token}'", lineno, path)
    return value


def _parse_int(token: str, lineno: int, path: str) -> int:
    try:
        return _plain_number(int, token)
    except ValueError:
        raise FormatError(f"not an integer: '{token}'", lineno, path)


# ---------------------------------------------------------------------------
# reward machines (.rm)


def machine_to_text(machine: RewardMachine) -> str:
    lines = [("alphabet", *machine.alphabet)]
    for s in machine.states:
        lines.append(("state", s, "init") if s == machine.initial else ("state", s))
    for t in machine.transitions:
        guard = _Guard(print_formula(t.guard))
        lines.append(("trans", t.source, guard, t.target, format_real(t.reward)))
    return _text(lines)


def parse_machine_text(text: str, path: str = None) -> RewardMachine:
    found = _directives(_logical_lines(text, path), path, {
        "alphabet": "[ATOM...]", "state": "NAME [init]", "trans": 'SRC "GUARD" DST REWARD'})
    at, atoms = _once(found, "alphabet", path)
    alphabet = tuple(atoms)
    if found["trans"] and found["trans"][0][0] < at:
        raise FormatError("alphabet must come before transitions", found["trans"][0][0], path)
    bad = [lineno for lineno, args in found["state"] if args[1:] not in ([], ["init"])]
    if bad:
        raise FormatError("expected `state NAME` or `state NAME init`", bad[0], path)
    initial = [(lineno, args[0]) for lineno, args in found["state"] if args[1:]]
    if len(initial) != 1:
        raise FormatError("need exactly one init state", initial[1][0] if initial else None, path)
    transitions = []
    for lineno, (src, guard, dst, reward) in found["trans"]:
        try:
            guard = parse_formula(guard, alphabet)
        except PluralismError as err:
            raise FormatError(f"bad guard: {err}", lineno, path)
        transitions.append(Transition(src, guard, dst, _parse_real(reward, lineno, path)))
    lines = {("states", i): lineno for i, (lineno, _) in enumerate(found["state"])}
    lines.update({("transitions", i): lineno for i, (lineno, _) in enumerate(found["trans"])})
    lines.update(alphabet=at, initial=initial[0][0])
    return _at(lines, path, RewardMachine, states=tuple(args[0] for _, args in found["state"]),
               initial=initial[0][1], alphabet=alphabet, transitions=tuple(transitions))


def load_machine(path) -> RewardMachine:
    """Parse and validate; an invalid machine raises `PATH: not a valid
    machine` followed by one problem per line."""
    path = Path(path)
    return require_valid(parse_machine_text(_read(path), str(path)), str(path))


def save_machine(machine: RewardMachine, path) -> None:
    _write(path, machine_to_text(machine))


# ---------------------------------------------------------------------------
# environments (.env)


def _parse_restaurant(body: list, path: str) -> RestaurantEnv:
    found = _directives(body, path, {"n_friends": "N", "types": "[TYPE...]", "prefers": "I TYPE"})
    n_line, (count,) = _once(found, "n_friends", path)
    n_friends = _parse_int(count, n_line, path)
    types_line, types = _once(found, "types", path)
    prefers = _indexed(found, "prefers", n_friends, path, every="friend")
    lines = {"n_friends": n_line, "restaurant_types": types_line}
    lines.update({("preferred", i - 1): lineno for i, (lineno, _) in prefers.items()})
    preferred = tuple(prefers[i][1][0] for i in range(1, n_friends + 1))
    return RestaurantEnv(_at(lines, path, RestaurantConfig, n_friends, tuple(types), preferred))


def _parse_delivery(body: list, path: str) -> DeliveryGridEnv:
    found = _directives(body, path, {"grid": "W H", "start": "X Y", "recipient": "X Y"})

    def pair(lineno, args):
        return lineno, tuple(_parse_int(a, lineno, path) for a in args)

    grid_line, (width, height) = pair(*_once(found, "grid", path))
    start_line, start = pair(*_once(found, "start", path))
    recipients = [pair(*entry) for entry in found["recipient"]]
    lines = {"grid": grid_line, "start": start_line}
    lines.update({("recipients", i): lineno for i, (lineno, _) in enumerate(recipients)})
    cells = tuple(cell for _, cell in recipients)
    return DeliveryGridEnv(_at(lines, path, DeliveryConfig, width, height, start, cells))


# env keyword -> (env class, its reader of the lines after `env KIND`, the
# directives that write its config back, the lines `describe` prints of its
# config).  An env matches the first row whose class it is an instance of.
_ENVS = {
    "restaurant": (
        RestaurantEnv, _parse_restaurant,
        lambda cfg: [("n_friends", cfg.n_friends), ("types", *cfg.restaurant_types),
                     *[("prefers", i, pref) for i, pref in enumerate(cfg.preferred, start=1)]],
        lambda cfg: [f"restaurant environment, {cfg.n_friends} friends",
                     f"types: {', '.join(cfg.restaurant_types)}",
                     *[f"friend {i} prefers {pref}"
                       for i, pref in enumerate(cfg.preferred, start=1)]]),
    "delivery_grid": (
        DeliveryGridEnv, _parse_delivery,
        lambda cfg: [("grid", cfg.width, cfg.height), ("start", *cfg.start),
                     *[("recipient", x, y) for x, y in cfg.recipients]],
        lambda cfg: [f"delivery grid {cfg.width}x{cfg.height}, {len(cfg.recipients)} recipients",
                     f"start: {cfg.start[0]},{cfg.start[1]}",
                     *[f"recipient {i} at {x},{y}"
                       for i, (x, y) in enumerate(cfg.recipients, start=1)]]),
}


def _env_kind(env: LabelledEnv) -> tuple:
    """(keyword, row) of the _ENVS row `env` matches; an env of no row has
    no text form."""
    for kind, row in _ENVS.items():
        if isinstance(env, row[0]):
            return kind, row
    raise ValueError(f"no text form for {type(env).__name__}")


def env_description(env: LabelledEnv) -> list:
    """The lines `describe` prints of the config of `env`: a heading, then
    one line per detail."""
    return _env_kind(env)[1][3](env.config)


def env_to_text(env: LabelledEnv) -> str:
    kind, row = _env_kind(env)
    return _text([("env", kind), *row[2](env.config)])


def parse_env_text(text: str, path: str = None) -> LabelledEnv:
    lines = _logical_lines(text, path)
    if not lines or lines[0][1][0] != "env" or len(lines[0][1]) != 2:
        raise FormatError("first line must be " + " or ".join(f"`env {kind}`" for kind in _ENVS),
                          lines[0][0] if lines else None, path)
    lineno, (_, kind) = lines[0]
    if kind not in _ENVS:
        raise FormatError(f"unknown env kind '{kind}'", lineno, path)
    return _ENVS[kind][1](lines[1:], path)


def load_env(path) -> LabelledEnv:
    path = Path(path)
    return parse_env_text(_read(path), str(path))


def save_env(env: LabelledEnv, path) -> None:
    _write(path, env_to_text(env))


# ---------------------------------------------------------------------------
# markov reward tables (.mt)


def markov_table_to_text(source: MarkovTableSource) -> str:
    lines = [("default", format_real(source.default))]
    for (s, a, s2), r in sorted(source.rewards.items()):
        lines.append(("reward", s, a, s2, format_real(r)))
    return _text(lines)


def parse_markov_table_text(text: str, path: str = None, name: str = None) -> MarkovTableSource:
    found = _directives(_logical_lines(text, path), path, {"default": "R", "reward": "S A S2 R"})
    lineno, (token,) = _once(found, "default", path, ["0"])
    default = _parse_real(token, lineno, path)
    rewards: dict = {}
    for lineno, (s, a, s2, r) in found["reward"]:
        if (s, a, s2) in rewards:
            raise FormatError(f"duplicate reward entry for {(s, a, s2)}", lineno, path)
        rewards[(s, a, s2)] = _parse_real(r, lineno, path)
    return MarkovTableSource(rewards=rewards, default=default, path=name)


def load_markov_table(path, name: str = None) -> MarkovTableSource:
    """The table at `path`, referred to by `name` (default: the file name)."""
    path = Path(path)
    return parse_markov_table_text(_read(path), str(path), name or path.name)


def save_markov_table(source: MarkovTableSource, path) -> None:
    _write(path, markov_table_to_text(source))


# ---------------------------------------------------------------------------
# schemes (.scheme)

# source keyword -> (source class, its reader of the `source` line's
# argument and the scheme's directory, the field written back, describe's
# phrase).  A file a reader cannot open is an error at the `source` line.
_SOURCES = {
    "count": (AtomCountSource, lambda arg, base: AtomCountSource(arg), "atom",
              "count of '{atom}'"),
    "machine": (MachineSource, lambda arg, base: MachineSource(load_machine(base / arg), arg),
                "path", "machine {path}"),
    "markov": (MarkovTableSource, lambda arg, base: load_markov_table(base / arg, arg),
               "path", "markov table {path}"),
}

# filter.kind -> (filter class, its (directive, field, type) in read and
# write order, describe's phrase)
_FILTERS = {
    "long_term": (LongTermFilter, (), "long-term (final prefix only)"),
    "periodic": (PeriodicFilter, (("filter.p", "period", int),), "periodic, every {period} steps"),
    "anytime": (AnytimeFilter, (), "anytime (every prefix)"),
    "event_count": (EventCountFilter, (("filter.atom", "atom", str), ("filter.k", "every", int)),
                    "event-count, every {every} occurrences of '{atom}'"),
}


def _kind(table: dict, part) -> str:
    """The keyword of the row of `table` (_SOURCES or _FILTERS) whose class
    `part` is."""
    return next(kind for kind, row in table.items() if type(part) is row[0])


# aggregation.mode -> describe's phrase (the op fields each mode reads are
# scheme.AGGREGATION_MODES)
_NESTED_PHRASE = "{mode}, inner {inner_op}, outer {outer_op}"
_AGGREGATIONS = {"flattened": "flattened {op}", "time_then_stakeholders": _NESTED_PHRASE,
                 "stakeholders_then_time": _NESTED_PHRASE}


def kind_phrase(part) -> str:
    """The phrase `describe` prints for a scheme's source, filter or
    aggregation: the last column of its row (an aggregation's row is its
    mode's), filled in from its fields."""
    if type(part) is Aggregation:
        phrase = _AGGREGATIONS[part.mode]
    else:
        rows = (*_SOURCES.values(), *_FILTERS.values())
        phrase = next(row[-1] for row in rows if type(part) is row[0])
    return phrase.format_map(vars(part))


def scheme_to_text(scheme: Scheme) -> str:
    stakeholders = list(enumerate(scheme.status.stakeholders, start=1))
    lines = [("n", scheme.status.n)]
    for i, sk in stakeholders:
        kind = _kind(_SOURCES, sk.source)
        ref = getattr(sk.source, _SOURCES[kind][2])
        if ref is None:
            raise ValueError(f"stakeholder {i}: {kind} source has no file reference")
        lines.append(("source", i, kind, ref))
    lines += [("accumulation", i, sk.accumulation) for i, sk in stakeholders]
    lines += [("gamma", i, format_real(sk.gamma))
              for i, sk in stakeholders if sk.accumulation == "discounted"]
    agg, filt = scheme.aggregation, scheme.filter
    lines.append(("aggregation.mode", agg.mode))
    lines += [(f"aggregation.{op}", getattr(agg, op)) for op in AGGREGATION_MODES[agg.mode]]
    kind = _kind(_FILTERS, filt)
    lines.append(("filter.kind", kind))
    lines += [(key, getattr(filt, name)) for key, name, _ in _FILTERS[kind][1]]
    lines.append(("empty_filter", scheme.empty_filter))
    return _text(lines)


# every scheme keyword -> its usage; the op and filter-parameter keywords
# come from the tables that own them
_SCHEME_ARITY = {
    "n": "K", "source": "I KIND ARG", "accumulation": "I KIND", "gamma": "I G",
    "aggregation.mode": "MODE", "filter.kind": "KIND", "empty_filter": "POLICY",
    **{f"aggregation.{op}": "OP" for ops in AGGREGATION_MODES.values() for op in ops},
    **{key: key.removeprefix("filter.").upper()
       for _, params, _ in _FILTERS.values() for key, _, _ in params},
}


def parse_scheme_text(text: str, path: str = None, base_dir=None) -> Scheme:
    """Build a scheme, loading referenced machine/markov files.

    Relative references resolve against base_dir (the scheme file's own
    directory when loaded via load_scheme).  A line the scheme would not
    read (a `gamma` of an undiscounted stakeholder, a field of another
    aggregation mode or filter kind) is an error, not silently dropped.
    """
    base = Path(base_dir) if base_dir is not None else Path(".")
    found = _directives(_logical_lines(text, path), path, _SCHEME_ARITY)

    def field(key, default=None):
        lineno, (value,) = _once(found, key, path, [default])
        return lineno, value

    n_line, (n,) = _once(found, "n", path)
    n = _parse_int(n, n_line, path)
    sources = _indexed(found, "source", n, path, every="stakeholder")
    accumulations = _indexed(found, "accumulation", n, path)
    gammas = _indexed(found, "gamma", n, path)
    stakeholders = []
    for i in range(1, n + 1):
        lineno, (kind, arg) = sources[i]
        if kind not in _SOURCES:
            raise FormatError(f"unknown source kind '{kind}'", lineno, path)
        source = _at(lineno, path, _SOURCES[kind][1], arg, base)
        acc_line, (accumulation,) = accumulations.get(i, (None, ["sum"]))
        if accumulation == "discounted" and i not in gammas:
            raise FormatError(f"stakeholder {i} is discounted but has no 'gamma {i}'",
                              acc_line, path)
        if accumulation != "discounted" and i in gammas:
            raise FormatError(f"'gamma {i}' is never read: stakeholder {i} is not discounted",
                              gammas[i][0], path)
        gamma_line, (gamma,) = gammas.get(i, (None, ["1"]))
        lines = {"accumulation": acc_line, "gamma": gamma_line}
        stakeholders.append(_at(lines, path, StakeholderStatus, source,
                                accumulation, _parse_real(gamma, gamma_line, path)))
    mode_line, mode = field("aggregation.mode", "flattened")
    read = {op: field(f"aggregation.{op}") for op in AGGREGATION_MODES.get(mode, ())}
    lines = {"mode": mode_line, **{op: line for op, (line, _) in read.items()}}
    aggregation = _at(lines, path, Aggregation, mode=mode,
                      **{op: value for op, (_, value) in read.items()})
    lineno, (kind,) = _once(found, "filter.kind", path)
    if kind not in _FILTERS:
        raise FormatError(f"unknown filter.kind '{kind}'", lineno, path)
    make, params, _ = _FILTERS[kind]
    lines, args = {}, {}
    for key, name, type_ in params:
        lines[name], (token,) = _once(found, key, path)
        args[name] = _parse_int(token, lines[name], path) if type_ is int else token
    filt = _at(lines, path, make, **args)
    status = _at(n_line, path, StatusFunction, stakeholders)
    lineno, empty_filter = field("empty_filter", "error")
    scheme = _at(lineno, path, Scheme, status, aggregation, filt, empty_filter)
    unread = [(entries[0][0], key) for key, entries in found.items() if entries]
    if unread:
        lineno, key = min(unread)
        raise FormatError(f"'{key}' is not read under this aggregation.mode and filter.kind",
                          lineno, path)
    return scheme


def load_scheme(path) -> Scheme:
    path = Path(path)
    return parse_scheme_text(_read(path), str(path), base_dir=path.parent)


def save_scheme(scheme: Scheme, path) -> None:
    _write(path, scheme_to_text(scheme))


# ---------------------------------------------------------------------------
# trajectories (.traj)


def trajectory_to_text(traj: Trajectory) -> str:
    """The `.traj` text; a label atom that is not a proposition name is a
    ValueError, as the reader would refuse it or read another label."""
    lines = [("init", traj.states[0])]
    for a, s2, lab in zip(traj.actions, traj.states[1:], traj.labels):
        atoms = ",".join(check_alphabet(sorted(lab)))
        lines.append(("step", a, s2, atoms or "-"))
    return _text(lines)


def parse_trajectory_text(text: str, path: str = None) -> Trajectory:
    lines = _logical_lines(text, path)
    if not lines or lines[0][1][0] != "init" or len(lines[0][1]) != 2:
        raise FormatError("first line must be `init STATE`", lines[0][0] if lines else None, path)
    found = _directives(lines[1:], path, {"step": "ACTION STATE ATOMS"})
    steps = found["step"]
    return Trajectory(
        states=(lines[0][1][1],) + tuple(state for _, (_, state, _) in steps),
        actions=tuple(action for _, (action, _, _) in steps),
        labels=tuple(
            frozenset(_at(lineno, path, check_alphabet, [] if atoms == "-" else atoms.split(",")))
            for lineno, (_, _, atoms) in steps),
    )


def load_trajectory(path) -> Trajectory:
    path = Path(path)
    return parse_trajectory_text(_read(path), str(path))


def save_trajectory(traj: Trajectory, path) -> None:
    _write(path, trajectory_to_text(traj))


# ---------------------------------------------------------------------------
# optimizer results


def write_results(result: PolicyResult, scheme: Scheme, out_dir) -> None:
    """result.txt + statuses.csv + best.traj under out_dir."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    lines = [("method", result.method), ("horizon", result.trajectory.horizon),
             ("score", format_real(result.score)), ("evaluations", result.evaluations)]
    _write(out / "result.txt", _text(lines))
    write_status_csv(scheme, result.trajectory, out / "statuses.csv")
    save_trajectory(result.trajectory, out / "best.traj")


def write_status_csv(scheme: Scheme, traj: Trajectory, path) -> None:
    """A header row, then one row per filtered time: t, u_1, ..., u_n.  No
    field holds a comma, a quote or a line break, so none is quoted."""
    rows = [["t"] + [f"u_{j}" for j in range(1, scheme.status.n + 1)]]
    rows += [[str(t)] + [format_real(x) for x in vec] for t, vec in status_table(scheme, traj)]
    _write(path, "".join(",".join(row) + "\n" for row in rows))
