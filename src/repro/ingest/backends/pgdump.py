"""The dump-file catalog backend: ``pg_dump``/``mysqldump`` SQL, parsed.

Live Postgres/MySQL introspection needs drivers this library does not
ship; their *dump files* need only a parser. This backend reads the SQL
text a vendor dump tool emits — ``CREATE TABLE`` bodies (inline and
table-level constraints, MySQL ``KEY``/``CONSTRAINT`` clauses),
``ALTER TABLE ... ADD CONSTRAINT`` (how ``pg_dump`` declares every key),
``CREATE UNIQUE INDEX``, ``COPY ... FROM stdin`` data sections, and
``INSERT INTO ... VALUES`` rows — into the same
:class:`~repro.ingest.backends.base.CatalogBackend` structures the
SQLite backend produces.

The dump is **parsed, never executed**: untrusted input cannot run SQL,
touch the filesystem, or reach a driver, because there is no database
engine anywhere in this path. Statements the parser does not understand
are skipped and surfaced through :meth:`DumpBackend.diagnostics` —
housekeeping statements (``SET``, ``LOCK TABLES``, ownership, grants,
sequences) silently, structural ones (an ``ADD CONSTRAINT`` form we
cannot model, a row section for an unknown table) as findings.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

from repro.exceptions import IngestError
from repro.ingest.backends.base import (
    CatalogBackend,
    ColumnDef,
    ForeignKeyDef,
)
from repro.validation import ERROR, INFO, WARNING, Diagnostic

#: Leading bytes of a SQLite database file — a common operator mistake
#: is pointing ``--backend pgdump`` at a ``.db`` file.
SQLITE_MAGIC = "SQLite format 3\x00"

#: Ordered declared-type → category rules (regex search, first wins).
#: ``temporal`` outranks ``integer`` so ``interval`` does not read as an
#: int; ``boolean`` leads so ``bool`` never falls through to text.
_CATEGORY_RULES = (
    (re.compile(r"bool"), "boolean"),
    (re.compile(r"date|time|year|interval"), "temporal"),
    (re.compile(r"int|serial"), "integer"),
    (re.compile(r"float|double|real"), "real"),
    (re.compile(r"dec|numeric|money|fixed"), "numeric"),
    (re.compile(r"bytea|blob|binary|bit"), "blob"),
)


def dump_type_category(declared: str) -> str:
    """Map a Postgres/MySQL declared type into the shared categories."""
    lowered = declared.lower()
    for rule, category in _CATEGORY_RULES:
        if rule.search(lowered):
            return category
    return "text"


# ---------------------------------------------------------------------------
# Lexing: statements, quotes, comments, COPY payloads
# ---------------------------------------------------------------------------
_DOLLAR_TAG_RE = re.compile(r"\$[A-Za-z_]*\$")
_COPY_STDIN_RE = re.compile(
    r"^COPY\s+.*\bFROM\s+stdin\b", re.IGNORECASE | re.DOTALL
)


def _scan_quoted(text: str, start: int) -> int:
    """Index one past the end of the quoted token starting at ``start``.

    Handles doubling (``''``, ``""``, ``` `` ```) and backslash escapes
    (MySQL string syntax; harmless for the identifier quotes).
    """
    quote = text[start]
    i = start + 1
    n = len(text)
    while i < n:
        ch = text[i]
        if ch == "\\" and quote in ("'", "`"):
            i += 2
            continue
        if ch == quote:
            if i + 1 < n and text[i + 1] == quote:  # doubled quote
                i += 2
                continue
            return i + 1
        i += 1
    return n  # unterminated; consume the rest


def _iter_statements(text: str):
    """Yield ``(statement, copy_payload)`` pairs from dump text.

    Statements are ``;``-terminated at top level (outside quotes,
    comments, and dollar-quoted bodies). A ``COPY ... FROM stdin``
    statement is followed by its raw payload: the lines up to the
    ``\\.`` terminator.
    """
    i, n = 0, len(text)
    parts: list[str] = []
    while i < n:
        ch = text[i]
        if ch == "-" and text.startswith("--", i):
            end = text.find("\n", i)
            i = n if end < 0 else end + 1
            continue
        if ch == "/" and text.startswith("/*", i):
            end = text.find("*/", i + 2)
            i = n if end < 0 else end + 2
            continue
        if ch in "'\"`":
            end = _scan_quoted(text, i)
            parts.append(text[i:end])
            i = end
            continue
        if ch == "$":
            match = _DOLLAR_TAG_RE.match(text, i)
            if match is not None:
                tag = match.group(0)
                end = text.find(tag, match.end())
                end = n if end < 0 else end + len(tag)
                parts.append(text[i:end])
                i = end
                continue
        if ch == ";":
            statement = "".join(parts).strip()
            parts = []
            i += 1
            if not statement:
                continue
            if _COPY_STDIN_RE.match(statement):
                # Payload: from the next line up to a bare "\." line.
                line_end = text.find("\n", i)
                data_start = n if line_end < 0 else line_end + 1
                terminator = re.compile(r"^\\\.\s*$", re.MULTILINE)
                match = terminator.search(text, data_start)
                if match is None:
                    yield statement, text[data_start:]
                    i = n
                else:
                    yield statement, text[data_start:match.start()]
                    i = match.end()
                continue
            yield statement, None
            continue
        parts.append(ch)
        i += 1
    tail = "".join(parts).strip()
    if tail:
        yield tail, None


def _split_top_level(text: str, separator: str = ",") -> list[str]:
    """Split on ``separator`` outside parens and quotes."""
    items: list[str] = []
    depth = 0
    i, n = 0, len(text)
    start = 0
    while i < n:
        ch = text[i]
        if ch in "'\"`":
            i = _scan_quoted(text, i)
            continue
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        elif ch == separator and depth == 0:
            items.append(text[start:i])
            start = i + 1
        i += 1
    items.append(text[start:])
    return [item.strip() for item in items if item.strip()]


# ---------------------------------------------------------------------------
# Identifiers
# ---------------------------------------------------------------------------
_BARE_IDENTIFIER_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_$]*")


def _take_identifier(text: str) -> tuple[str | None, str]:
    """Read one possibly-quoted, possibly-qualified identifier.

    Returns ``(last component unquoted, remaining text)`` — the
    qualifier (``public.``, ``mydb.``) is dropped, since the library
    models a single schema per side.
    """
    rest = text.lstrip()
    components: list[str] = []
    while True:
        if not rest:
            break
        ch = rest[0]
        if ch in "\"`":
            end = _scan_quoted(rest, 0)
            raw = rest[1:end - 1]
            components.append(raw.replace(ch * 2, ch))
            rest = rest[end:]
        else:
            match = _BARE_IDENTIFIER_RE.match(rest)
            if match is None:
                break
            components.append(match.group(0))
            rest = rest[match.end():]
        if rest.startswith("."):
            rest = rest[1:]
            continue
        break
    if not components:
        return None, text
    return components[-1], rest


def _identifier_list(text: str) -> list[str] | None:
    """Parse ``a, "b", `c```-style column lists; None on expressions."""
    names: list[str] = []
    for item in _split_top_level(text):
        name, rest = _take_identifier(item)
        # Tolerate index ordering/operator-class suffixes ("col DESC",
        # "col varchar_pattern_ops") but refuse expressions.
        if name is None or "(" in rest:
            return None
        names.append(name)
    return names if names else None


# ---------------------------------------------------------------------------
# Parsed catalog
# ---------------------------------------------------------------------------
@dataclass
class _TableAcc:
    """One table accumulated across CREATE/ALTER/data statements."""

    name: str
    columns: list[ColumnDef] = field(default_factory=list)
    primary_key: list[str] = field(default_factory=list)
    foreign_keys: list[ForeignKeyDef] = field(default_factory=list)
    uniques: list[tuple[str, ...]] = field(default_factory=list)
    rows: list[tuple] = field(default_factory=list)

    def column_names(self) -> list[str]:
        return [column.name for column in self.columns]

    def set_primary_key(self, names: list[str]) -> None:
        self.primary_key = list(names)
        ordinals = {name: i for i, name in enumerate(names, start=1)}
        self.columns = [
            ColumnDef(c.name, c.declared_type, ordinals.get(c.name, 0))
            for c in self.columns
        ]


_CREATE_TABLE_RE = re.compile(
    r"CREATE\s+TABLE\s+(?:IF\s+NOT\s+EXISTS\s+)?", re.IGNORECASE
)
_CREATE_INDEX_RE = re.compile(
    r"CREATE\s+(?P<unique>UNIQUE\s+)?INDEX\s+(?:CONCURRENTLY\s+)?"
    r"(?:IF\s+NOT\s+EXISTS\s+)?",
    re.IGNORECASE,
)
_ALTER_TABLE_RE = re.compile(
    r"ALTER\s+TABLE\s+(?:ONLY\s+)?(?:IF\s+EXISTS\s+)?", re.IGNORECASE
)
_COPY_RE = re.compile(r"COPY\s+", re.IGNORECASE)
_INSERT_RE = re.compile(
    r"INSERT\s+(?:IGNORE\s+)?INTO\s+", re.IGNORECASE
)
_REFERENCES_RE = re.compile(r"\bREFERENCES\s+", re.IGNORECASE)
_PRIMARY_KEY_INLINE_RE = re.compile(r"\bPRIMARY\s+KEY\b", re.IGNORECASE)
_UNIQUE_INLINE_RE = re.compile(r"\bUNIQUE\b", re.IGNORECASE)

#: Statement openers that are dump housekeeping, skipped silently.
_HOUSEKEEPING_RE = re.compile(
    r"(SET|SELECT|BEGIN|COMMIT|START\s+TRANSACTION|USE|LOCK\s+TABLES|"
    r"UNLOCK\s+TABLES|GRANT|REVOKE|COMMENT\s+ON|SECURITY\s+LABEL|"
    r"CREATE\s+(SCHEMA|SEQUENCE|EXTENSION|FUNCTION|PROCEDURE|TRIGGER|"
    r"VIEW|TYPE|DOMAIN|DATABASE|RULE|AGGREGATE|OPERATOR|TEXT\s+SEARCH|"
    r"SERVER|PUBLICATION|SUBSCRIPTION)|"
    r"ALTER\s+(SEQUENCE|SCHEMA|FUNCTION|VIEW|TYPE|DOMAIN|INDEX|"
    r"DATABASE|DEFAULT\s+PRIVILEGES|LARGE\s+OBJECT|OPERATOR)|"
    r"DROP|REFRESH|ANALYZE|VACUUM|DELIMITER)\b",
    re.IGNORECASE,
)

#: ALTER TABLE clauses that do not affect the modelled catalog.
_ALTER_NOOP_RE = re.compile(
    r"(OWNER\s+TO|SET|RESET|CLUSTER|REPLICA|ENABLE|DISABLE|FORCE|"
    r"NO\s+FORCE|ATTACH|DETACH|INHERIT|NO\s+INHERIT|VALIDATE|"
    r"ALTER\s+COLUMN|ALTER\s+CONSTRAINT|MODIFY|CHANGE|CONVERT|"
    r"AUTO_INCREMENT|ENGINE|RENAME)",
    re.IGNORECASE,
)

#: Column-definition keywords that terminate the declared-type text.
_TYPE_STOP_WORDS = frozenset(
    {
        "NOT", "NULL", "DEFAULT", "PRIMARY", "UNIQUE", "REFERENCES",
        "CONSTRAINT", "CHECK", "COLLATE", "AUTO_INCREMENT", "GENERATED",
        "COMMENT", "STORED", "VIRTUAL", "ON",
    }
)


class DumpParser:
    """Parses one dump's text into ``_TableAcc`` structures."""

    def __init__(self) -> None:
        self.tables: dict[str, _TableAcc] = {}
        self.order: list[str] = []
        self.diagnostics: list[Diagnostic] = []

    # -- diagnostics -----------------------------------------------------
    def _diag(
        self, severity: str, code: str, message: str, location: str = ""
    ) -> None:
        self.diagnostics.append(
            Diagnostic(severity, code, message, location)
        )

    # -- entry point -----------------------------------------------------
    def parse(self, text: str) -> None:
        for statement, payload in _iter_statements(text):
            try:
                self._statement(statement, payload)
            except IngestError:
                raise
            except Exception as error:  # defensive: never crash on input
                self._diag(
                    WARNING,
                    "dump.statement-unparsed",
                    f"could not parse statement "
                    f"{statement[:80]!r}...: {error}",
                )

    def _statement(self, statement: str, payload: str | None) -> None:
        if _CREATE_TABLE_RE.match(statement):
            self._create_table(statement)
        elif _CREATE_INDEX_RE.match(statement):
            self._create_index(statement)
        elif _ALTER_TABLE_RE.match(statement):
            self._alter_table(statement)
        elif payload is not None:
            self._copy_rows(statement, payload)
        elif _INSERT_RE.match(statement):
            self._insert_rows(statement)
        elif _HOUSEKEEPING_RE.match(statement):
            pass
        else:
            first = statement.split(None, 2)[:2]
            self._diag(
                INFO,
                "dump.statement-skipped",
                f"unrecognized statement {' '.join(first)!r} skipped "
                f"(the parser models tables, constraints, indexes, and "
                f"row data only)",
            )

    # -- CREATE TABLE ----------------------------------------------------
    def _create_table(self, statement: str) -> None:
        rest = statement[_CREATE_TABLE_RE.match(statement).end():]
        name, rest = _take_identifier(rest)
        if name is None:
            self._diag(
                WARNING,
                "dump.statement-unparsed",
                f"CREATE TABLE without a parseable name: "
                f"{statement[:80]!r}",
            )
            return
        rest = rest.lstrip()
        if not rest.startswith("("):
            self._diag(
                WARNING,
                "dump.statement-unparsed",
                "CREATE TABLE without a column list",
                name,
            )
            return
        body = self._parenthesized(rest)
        if name in self.tables:
            self._diag(
                ERROR,
                "dump.table-redefined",
                f"table {name!r} is defined more than once in the dump; "
                f"the later definition is ignored",
                name,
            )
            return
        table = _TableAcc(name)
        pk: list[str] = []
        for item in _split_top_level(body):
            self._table_body_item(table, item, pk)
        if pk:
            table.set_primary_key(pk)
        self.tables[name] = table
        self.order.append(name)

    @staticmethod
    def _parenthesized(text: str) -> str:
        """The content of the leading balanced paren group of ``text``."""
        depth = 0
        i, n = 0, len(text)
        while i < n:
            ch = text[i]
            if ch in "'\"`":
                i = _scan_quoted(text, i)
                continue
            if ch == "(":
                depth += 1
            elif ch == ")":
                depth -= 1
                if depth == 0:
                    return text[1:i]
            i += 1
        return text[1:]

    def _table_body_item(
        self, table: _TableAcc, item: str, pk: list[str]
    ) -> None:
        upper = item.upper()
        constraint_name = None
        if upper.startswith("CONSTRAINT"):
            constraint_name, item = _take_identifier(item[len("CONSTRAINT"):])
            item = item.strip()
            upper = item.upper()
        if upper.startswith("PRIMARY"):
            names = _identifier_list(self._parenthesized(
                item[item.index("("):]
            ))
            if names:
                pk[:] = names
            return
        if upper.startswith("UNIQUE"):
            # UNIQUE (...), UNIQUE KEY name (...), UNIQUE INDEX name (...)
            paren = item.find("(")
            if paren >= 0:
                names = _identifier_list(
                    self._parenthesized(item[paren:])
                )
                if names:
                    table.uniques.append(tuple(names))
            return
        if upper.startswith("FOREIGN"):
            fk = self._foreign_key_clause(item, table.name)
            if fk is not None:
                table.foreign_keys.append(fk)
            return
        if upper.startswith(("KEY", "INDEX", "FULLTEXT", "SPATIAL")):
            return  # MySQL non-unique index clauses: no catalog content
        if upper.startswith(("CHECK", "EXCLUDE", "LIKE", "PERIOD")):
            self._diag(
                INFO,
                "dump.constraint-ignored",
                f"{item.split(None, 1)[0]} constraint"
                f"{f' {constraint_name!r}' if constraint_name else ''} "
                f"is outside the modelled catalog; ignored",
                table.name,
            )
            return
        self._column_definition(table, item, pk)

    def _column_definition(
        self, table: _TableAcc, item: str, pk: list[str]
    ) -> None:
        name, rest = _take_identifier(item)
        if name is None:
            self._diag(
                WARNING,
                "dump.statement-unparsed",
                f"unparseable column definition {item[:60]!r}",
                table.name,
            )
            return
        declared, tail = self._declared_type(rest)
        table.columns.append(ColumnDef(name, declared, 0))
        if _PRIMARY_KEY_INLINE_RE.search(tail) and name not in pk:
            pk.append(name)
        elif _UNIQUE_INLINE_RE.search(tail):
            table.uniques.append((name,))
        reference = _REFERENCES_RE.search(tail)
        if reference is not None:
            parent, after = _take_identifier(tail[reference.end():])
            parent_columns: list[str | None] = [None]
            after = after.lstrip()
            if parent is not None and after.startswith("("):
                named = _identifier_list(self._parenthesized(after))
                if named:
                    parent_columns = list(named)
            if parent is not None:
                table.foreign_keys.append(
                    ForeignKeyDef(
                        parent,
                        tuple(
                            (name, parent_column)
                            for parent_column in parent_columns
                        ),
                    )
                )

    @staticmethod
    def _declared_type(rest: str) -> tuple[str, str]:
        """Split a column tail into (declared type text, the rest)."""
        tokens: list[str] = []
        i, n = 0, len(rest)
        while i < n:
            if rest[i].isspace():
                i += 1
                continue
            if rest[i] == "(":
                group = DumpParser._parenthesized(rest[i:])
                tokens.append(f"({group})")
                i += len(group) + 2
                continue
            if rest[i] in "'\"`":
                end = _scan_quoted(rest, i)
                tokens.append(rest[i:end])
                i = end
                continue
            match = re.match(r"[^\s(]+", rest[i:])
            word = match.group(0)
            if word.upper().rstrip(",") in _TYPE_STOP_WORDS:
                return " ".join(tokens), rest[i:]
            tokens.append(word)
            i += match.end()
        return " ".join(tokens), ""

    def _foreign_key_clause(
        self, item: str, table_name: str
    ) -> ForeignKeyDef | None:
        paren = item.find("(")
        if paren < 0:
            return None
        children = _identifier_list(self._parenthesized(item[paren:]))
        reference = _REFERENCES_RE.search(item, paren)
        if children is None or reference is None:
            self._diag(
                WARNING,
                "dump.statement-unparsed",
                f"unparseable FOREIGN KEY clause {item[:60]!r}",
                table_name,
            )
            return None
        parent, after = _take_identifier(item[reference.end():])
        if parent is None:
            return None
        after = after.lstrip()
        parents: list[str | None]
        if after.startswith("("):
            named = _identifier_list(self._parenthesized(after))
            parents = list(named) if named else [None] * len(children)
        else:
            parents = [None] * len(children)
        if len(parents) != len(children):
            self._diag(
                WARNING,
                "dump.statement-unparsed",
                f"FOREIGN KEY arity mismatch in {item[:60]!r}",
                table_name,
            )
            return None
        return ForeignKeyDef(parent, tuple(zip(children, parents)))

    # -- ALTER TABLE -----------------------------------------------------
    def _alter_table(self, statement: str) -> None:
        rest = statement[_ALTER_TABLE_RE.match(statement).end():]
        name, rest = _take_identifier(rest)
        table = self.tables.get(name) if name else None
        for clause in _split_top_level(rest):
            upper = clause.upper()
            if not upper.startswith("ADD"):
                if not _ALTER_NOOP_RE.match(clause):
                    self._diag(
                        INFO,
                        "dump.statement-skipped",
                        f"ALTER TABLE clause {clause[:40]!r} skipped",
                        name or "",
                    )
                continue
            if table is None:
                self._diag(
                    WARNING,
                    "dump.alter-unknown-table",
                    f"ALTER TABLE for {name!r}, which the dump never "
                    f"created; constraint dropped",
                    name or "",
                )
                continue
            body = clause[len("ADD"):].strip()
            upper_body = body.upper()
            constraint_name = None
            if upper_body.startswith("CONSTRAINT"):
                constraint_name, body = _take_identifier(
                    body[len("CONSTRAINT"):]
                )
                body = body.strip()
                upper_body = body.upper()
            if upper_body.startswith("PRIMARY"):
                names = _identifier_list(
                    self._parenthesized(body[body.index("("):])
                )
                if names:
                    table.set_primary_key(names)
            elif upper_body.startswith("UNIQUE"):
                paren = body.find("(")
                if paren >= 0:
                    names = _identifier_list(
                        self._parenthesized(body[paren:])
                    )
                    if names:
                        table.uniques.append(tuple(names))
            elif upper_body.startswith("FOREIGN"):
                fk = self._foreign_key_clause(body, table.name)
                if fk is not None:
                    table.foreign_keys.append(fk)
            else:
                self._diag(
                    INFO,
                    "dump.constraint-ignored",
                    f"ADD {body.split(None, 1)[0] if body else '?'} "
                    f"constraint"
                    f"{f' {constraint_name!r}' if constraint_name else ''}"
                    f" is outside the modelled catalog; ignored",
                    table.name,
                )

    # -- CREATE [UNIQUE] INDEX -------------------------------------------
    def _create_index(self, statement: str) -> None:
        match = _CREATE_INDEX_RE.match(statement)
        if match.group("unique") is None:
            return  # non-unique indexes carry no catalog content
        rest = statement[match.end():]
        _, rest = _take_identifier(rest)  # index name
        on = re.search(r"\bON\s+(?:ONLY\s+)?", rest, re.IGNORECASE)
        if on is None:
            return
        table_name, rest = _take_identifier(rest[on.end():])
        table = self.tables.get(table_name) if table_name else None
        if table is None:
            self._diag(
                WARNING,
                "dump.alter-unknown-table",
                f"CREATE UNIQUE INDEX on {table_name!r}, which the dump "
                f"never created; index dropped",
                table_name or "",
            )
            return
        using = re.match(r"\s*USING\s+\w+", rest, re.IGNORECASE)
        if using is not None:
            rest = rest[using.end():]
        rest = rest.lstrip()
        if not rest.startswith("("):
            return
        names = _identifier_list(self._parenthesized(rest))
        if names:  # expression indexes are skipped entirely
            table.uniques.append(tuple(names))

    # -- data sections ---------------------------------------------------
    def _data_target(
        self, name: str | None, columns: list[str] | None, what: str
    ) -> tuple[_TableAcc, list[str]] | None:
        table = self.tables.get(name) if name else None
        if table is None:
            self._diag(
                WARNING,
                "dump.data-unknown-table",
                f"{what} for table {name!r}, which the dump never "
                f"created; rows dropped",
                name or "",
            )
            return None
        names = columns if columns is not None else table.column_names()
        missing = [c for c in names if c not in table.column_names()]
        if missing:
            self._diag(
                WARNING,
                "dump.data-unknown-columns",
                f"{what} names unknown column(s) {missing}; rows dropped",
                table.name,
            )
            return None
        return table, names

    def _store_row(
        self, table: _TableAcc, names: list[str], values: list
    ) -> bool:
        if len(values) != len(names):
            return False
        by_name = dict(zip(names, values))
        categories = {
            c.name: dump_type_category(c.declared_type)
            for c in table.columns
        }
        row = tuple(
            _coerce(by_name.get(c), categories[c])
            if c in by_name
            else None
            for c in table.column_names()
        )
        table.rows.append(row)
        return True

    def _copy_rows(self, statement: str, payload: str) -> None:
        rest = statement[_COPY_RE.match(statement).end():]
        name, rest = _take_identifier(rest)
        columns = None
        rest = rest.lstrip()
        if rest.startswith("("):
            columns = _identifier_list(self._parenthesized(rest))
        target = self._data_target(name, columns, "COPY data")
        if target is None:
            return
        table, names = target
        bad = 0
        for line in payload.splitlines():
            if not line or line == "\\.":
                continue
            values = [_copy_field(field_) for field_ in line.split("\t")]
            if not self._store_row(table, names, values):
                bad += 1
        if bad:
            self._diag(
                WARNING,
                "dump.data-arity",
                f"{bad} COPY row(s) had the wrong column count; dropped",
                table.name,
            )

    def _insert_rows(self, statement: str) -> None:
        rest = statement[_INSERT_RE.match(statement).end():]
        name, rest = _take_identifier(rest)
        rest = rest.lstrip()
        columns = None
        if rest.startswith("("):
            columns = _identifier_list(self._parenthesized(rest))
            depth_end = self._paren_span(rest)
            rest = rest[depth_end:].lstrip()
        values_kw = re.match(r"VALUES?\s*", rest, re.IGNORECASE)
        if values_kw is None:
            self._diag(
                INFO,
                "dump.statement-skipped",
                f"non-VALUES INSERT for {name!r} skipped",
                name or "",
            )
            return
        target = self._data_target(name, columns, "INSERT data")
        if target is None:
            return
        table, names = target
        bad = 0
        for group in _split_top_level(rest[values_kw.end():]):
            group = group.strip()
            if not group.startswith("("):
                continue
            values = _parse_values(self._parenthesized(group))
            if not self._store_row(table, names, values):
                bad += 1
        if bad:
            self._diag(
                WARNING,
                "dump.data-arity",
                f"{bad} INSERT tuple(s) had the wrong column count; "
                f"dropped",
                table.name,
            )

    @staticmethod
    def _paren_span(text: str) -> int:
        depth = 0
        i, n = 0, len(text)
        while i < n:
            ch = text[i]
            if ch in "'\"`":
                i = _scan_quoted(text, i)
                continue
            if ch == "(":
                depth += 1
            elif ch == ")":
                depth -= 1
                if depth == 0:
                    return i + 1
            i += 1
        return n


# ---------------------------------------------------------------------------
# Value literals
# ---------------------------------------------------------------------------
_COPY_ESCAPES = {
    "t": "\t", "n": "\n", "r": "\r", "b": "\b", "f": "\f", "v": "\v",
    "\\": "\\",
}


def _copy_field(field_text: str):
    """Decode one COPY text-format field (``\\N`` is NULL)."""
    if field_text == "\\N":
        return None
    out: list[str] = []
    i, n = 0, len(field_text)
    while i < n:
        ch = field_text[i]
        if ch == "\\" and i + 1 < n:
            out.append(_COPY_ESCAPES.get(field_text[i + 1], field_text[i + 1]))
            i += 2
            continue
        out.append(ch)
        i += 1
    return "".join(out)


_NUMBER_RE = re.compile(r"[-+]?(\d+\.?\d*|\.\d+)([eE][-+]?\d+)?$")


def _parse_values(text: str) -> list:
    """Parse one ``VALUES (...)`` tuple body into Python values."""
    values: list = []
    for item in _split_top_level(text):
        item = item.strip()
        upper = item.upper()
        if upper == "NULL":
            values.append(None)
        elif upper in ("TRUE", "FALSE"):
            values.append(1 if upper == "TRUE" else 0)
        elif item.startswith("_binary"):
            values.append(_unquote_string(item[len("_binary"):].strip()))
        elif item.startswith(("'", '"')):
            values.append(_unquote_string(item))
        elif _NUMBER_RE.match(item):
            number = float(item)
            values.append(int(number) if number.is_integer() else number)
        else:
            values.append(item)  # hex literals, expressions: keep as text
    return values


def _unquote_string(text: str):
    quote = text[0] if text else "'"
    body = text[1:-1] if text.endswith(quote) and len(text) > 1 else text[1:]
    out: list[str] = []
    i, n = 0, len(body)
    while i < n:
        ch = body[i]
        if ch == "\\" and i + 1 < n:
            out.append(_COPY_ESCAPES.get(body[i + 1], body[i + 1]))
            i += 2
            continue
        if ch == quote and i + 1 < n and body[i + 1] == quote:
            out.append(quote)
            i += 2
            continue
        out.append(ch)
        i += 1
    return "".join(out)


def _coerce(value, category: str):
    """Best-effort typed value for a text literal (COPY data is text)."""
    if value is None or not isinstance(value, str):
        return value
    if category in ("integer", "real", "numeric", "boolean"):
        try:
            number = float(value)
        except ValueError:
            return value
        return int(number) if number.is_integer() else number
    return value


# ---------------------------------------------------------------------------
# The backend
# ---------------------------------------------------------------------------
class DumpBackend(CatalogBackend):
    """A parsed ``pg_dump``/``mysqldump`` file as a catalog backend."""

    name = "pgdump"

    def __init__(self, parser: DumpParser) -> None:
        self._parser = parser

    @classmethod
    def from_text(cls, text: str) -> "DumpBackend":
        """Parse dump text. The text is never executed."""
        if text.startswith(SQLITE_MAGIC):
            raise IngestError(
                "dump.binary: input is a SQLite database file, not a "
                "SQL dump; use the sqlite backend for .db files"
            )
        if not text.strip():
            raise IngestError(
                "dump.empty: the dump contains no SQL statements"
            )
        parser = DumpParser()
        parser.parse(text)
        return cls(parser)

    @classmethod
    def from_path(cls, path: str) -> "DumpBackend":
        """Read and parse a dump file, with structured failures."""
        try:
            with open(path, "rb") as handle:
                raw = handle.read()
        except OSError as error:
            raise IngestError(
                f"dump.unreadable: cannot read dump file {path!r}: "
                f"{error}"
            ) from error
        if raw.startswith(SQLITE_MAGIC.encode("latin-1")):
            raise IngestError(
                f"dump.binary: {path!r} is a SQLite database file, not "
                f"a SQL dump; use --backend sqlite"
            )
        try:
            text = raw.decode("utf-8")
        except UnicodeDecodeError as error:
            raise IngestError(
                f"dump.unreadable: dump file {path!r} is not UTF-8 "
                f"text: {error}"
            ) from error
        if not text.strip():
            raise IngestError(
                f"dump.empty: dump file {path!r} contains no SQL "
                f"statements"
            )
        return cls.from_text(text)

    # -- protocol --------------------------------------------------------
    def list_tables(self) -> tuple[str, ...]:
        return tuple(self._parser.order)

    def _table(self, table: str) -> _TableAcc:
        try:
            return self._parser.tables[table]
        except KeyError:
            raise IngestError(
                f"dump has no table {table!r}"
            ) from None

    def columns(self, table: str) -> tuple[ColumnDef, ...]:
        return tuple(self._table(table).columns)

    def foreign_keys(self, table: str) -> tuple[ForeignKeyDef, ...]:
        return tuple(self._table(table).foreign_keys)

    def unique_indexes(self, table: str) -> tuple[tuple[str, ...], ...]:
        return tuple(self._table(table).uniques)

    def sample_rows(
        self, table: str, columns: tuple[str, ...], limit: int
    ) -> tuple[tuple, ...]:
        """Parsed rows projected and sorted like ``ORDER BY columns``."""
        acc = self._table(table)
        order = {name: i for i, name in enumerate(acc.column_names())}
        indexes = [order[column] for column in columns]
        projected = [
            tuple(row[i] for i in indexes) for row in acc.rows
        ]
        projected.sort(key=_row_sort_key)
        return tuple(projected[:limit])

    def type_category(self, declared_type: str) -> str:
        return dump_type_category(declared_type)

    def diagnostics(self) -> tuple[Diagnostic, ...]:
        return tuple(self._parser.diagnostics)


def _row_sort_key(row: tuple):
    """SQLite-flavoured ordering: NULLs, then numbers, then text."""
    key = []
    for value in row:
        if value is None:
            key.append((0, ""))
        elif isinstance(value, bool):
            key.append((1, float(value)))
        elif isinstance(value, (int, float)):
            key.append((1, float(value)))
        else:
            key.append((2, str(value)))
    return tuple(key)


#: Textual markers that identify Postgres/MySQL dump dialects.
_DUMP_MARKERS = re.compile(
    r"FROM\s+stdin|ENGINE\s*=|AUTO_INCREMENT|pg_catalog\.|"
    r"ALTER\s+TABLE\s+ONLY|LOCK\s+TABLES|`|OWNER\s+TO",
    re.IGNORECASE,
)


def looks_like_dump(text: str) -> bool:
    """Heuristic: does SQL text look like a pg_dump/mysqldump file?

    Used by the ``auto`` backend to decide between parsing (pgdump) and
    in-memory execution under the SQLite authorizer.
    """
    return _DUMP_MARKERS.search(text) is not None
