"""Seeded synthetic databases and planted questions for the benchmark.

Every workload is built from its seed alone: the SQLite files, the question
list, and for each question the replies the scripted model will give and
the outcome the engine must reach (chosen SQL, selection method, call count
and execution accuracy).  The engine only ever sees the databases and the
questions; the plans stay on the benchmark's side of the fence.

Names are drawn with fixed lengths (six-letter tables, four-letter column
stems, two-digit values) so that prompt sizes, and with them token counts
and cost, barely move from one seed to the next.
"""
from __future__ import annotations

import random
import sqlite3
from dataclasses import dataclass
from pathlib import Path

VOTE = "regular_vote"
PAIRWISE = "pairwise_llm"

LINKER_CALLS = 3  # distinct (format, linker model) pairs in the default slate
SLOTS = 5  # candidate slots in the default slate

_CONSONANTS = "bdfgklmnprstvz"
_VOWELS = "aeiou"


@dataclass(frozen=True)
class Shape:
    """One vote shape of the mix, with its outcome derived by hand.

    slots labels the five candidate replies: a letter names a result group
    (equal letters return equal result multisets), "x" is a reply without a
    code block and "e" is SQL that fails to execute.  winner is the group the
    scripted judge must prefer, for shapes that escalate to the tournament.
    chosen is the slot whose SQL the engine must return.
    """

    slots: str
    gold: str
    chosen: int
    method: str
    judge_calls: int
    winner: str | None = None
    linker_fails: bool = False  # the secondary linker replies without JSON
    repeat: bool = False  # members of a group share one SQL text
    kind: str = "rows"  # "rows": a row listing; "scan": a whole-table aggregate


# 12 questions: 7 settle by vote, 3 go to the judge, 2 more escalate with at
# most one successful group (one survivor, or every candidate failed).
MIX = (
    Shape("AAAAA", "A", 0, VOTE, 0),
    Shape("AAAAA", "A", 0, VOTE, 0, linker_fails=True),
    Shape("AAAAB", "B", 0, VOTE, 0),
    Shape("AAABC", "A", 0, VOTE, 0, kind="scan"),
    Shape("ABBCD", "B", 1, VOTE, 0),
    Shape("AAAAx", "A", 0, VOTE, 0),
    Shape("AAABB", "B", 3, PAIRWISE, 2, winner="B"),
    Shape("AABBC", "A", 0, PAIRWISE, 6, winner="A", kind="scan"),
    Shape("ABCDE", "A", 3, PAIRWISE, 20, winner="D"),
    Shape("eeeAA", "A", 3, PAIRWISE, 0),
    Shape("xxxxx", "A", 0, PAIRWISE, 0),
    Shape("AAAAB", "A", 0, VOTE, 0, linker_fails=True, kind="scan"),
)

# 6 questions over the fact table: four list about 15k rows (two of them
# repeat one SQL text across the slate), two aggregate every row into a few.
# The first shape, the cheapest, is the warm-up.  Listings are the majority
# so that the median question is a listing, not a point between clusters.
BIG_MIX = (
    Shape("AAAAA", "A", 0, VOTE, 0, repeat=True, kind="scan"),
    Shape("AAAAA", "A", 0, VOTE, 0, repeat=True),
    Shape("AAAAB", "A", 0, VOTE, 0),
    Shape("AAABB", "A", 0, PAIRWISE, 2, winner="A"),
    Shape("AAABC", "B", 0, VOTE, 0, repeat=True),
    Shape("AABBC", "B", 2, PAIRWISE, 6, winner="B", kind="scan"),
)


@dataclass(frozen=True)
class Table:
    """A generated table: name, key, foreign-key column and typed columns."""

    name: str
    rows: int
    ref: str  # the table the foreign-key column points at
    cats: tuple[str, ...]  # low-cardinality text columns
    nums: tuple[str, ...]  # integer columns, values 10..99
    texts: tuple[str, ...]  # high-cardinality text columns

    @property
    def key(self) -> str:
        return f"{self.name}_id"

    @property
    def fk(self) -> str:
        return f"{self.name}_ref"

    def columns(self) -> list[str]:
        return [self.key, self.fk, *self.cats, *self.nums, *self.texts]


@dataclass(frozen=True)
class Plan:
    """One question, the scripted model's replies to it, and its outcome."""

    qid: str
    question: str
    db_id: str
    db_path: str
    gold_sql: str
    replies: tuple[str, ...]  # generation reply text per slot
    linker_reply: str
    secondary_linker_reply: str
    unfiltered_marker: str  # only in the unfiltered commented_tuples schema
    table_only_marker: str  # only in the table-only compact_tagged schema
    chosen_sql: str
    method: str
    calls: int
    ex: int


@dataclass
class Workload:
    """Everything one benchmark run needs, generated from the seed."""

    name: str
    latency_s: float
    clients: int
    block: int  # questions per repetition of the vote mix
    dbs: dict[str, str]
    plans: list[Plan]
    warmups: list[Plan]


def _word(rng: random.Random, length: int, taken: set[str]) -> str:
    while True:
        word = "".join(
            rng.choice(_CONSONANTS if i % 2 == 0 else _VOWELS) for i in range(length)
        )
        if word not in taken:
            taken.add(word)
            return word


def _make_tables(
    rng: random.Random, count: int, rows: int, cats: int, nums: int, texts: int
) -> list[Table]:
    taken: set[str] = set()
    names = [_word(rng, 6, taken) for _ in range(count)]
    tables = []
    for i, name in enumerate(names):
        stems = [_word(rng, 4, taken) for _ in range(cats + nums + texts)]
        cols = [f"{name}_{s}" for s in stems]
        tables.append(
            Table(
                name=name,
                rows=rows,
                ref=names[(i + 1) % count],
                cats=tuple(cols[:cats]),
                nums=tuple(cols[cats:cats + nums]),
                texts=tuple(cols[cats + nums:]),
            )
        )
    return tables


def _create_table_sql(table: Table) -> str:
    cols = [f"{table.key} INTEGER PRIMARY KEY"]
    cols.append(f"{table.fk} INTEGER REFERENCES {table.ref}({table.ref}_id)")
    cols += [f"{c} TEXT" for c in table.cats]
    cols += [f"{c} INTEGER" for c in table.nums]
    cols += [f"{c} TEXT" for c in table.texts]
    return f"CREATE TABLE {table.name} (\n    " + ",\n    ".join(cols) + "\n)"


def _table_rows(table: Table, rng: random.Random, ref_rows: int):
    cat_values = [[_word(rng, 5, set()) for _ in range(12)] for _ in table.cats]
    for i in range(1, table.rows + 1):
        row = [i, rng.randint(1, ref_rows)]
        row += [rng.choice(values) for values in cat_values]
        row += [rng.randint(10, 99) for _ in table.nums]
        row += [f"{c[-4:]}-{i:06d}" for c in table.texts]
        yield row


def _write_db(path: Path, tables: list[Table], rng: random.Random) -> None:
    rows_by_name = {t.name: t.rows for t in tables}
    conn = sqlite3.connect(path)
    try:
        for table in tables:
            conn.execute(_create_table_sql(table))
            marks = ", ".join("?" for _ in table.columns())
            conn.executemany(
                f"INSERT INTO {table.name} VALUES ({marks})",
                _table_rows(table, rng, rows_by_name[table.ref]),
            )
        conn.commit()
    finally:
        conn.close()


# -- SQL for one question --------------------------------------------------------


def _rows_sql(table: Table, n: int, variant: int) -> str:
    """A listing of the first n rows; every variant returns the same rows."""
    t, key = table.name, table.key
    a, b = table.cats[0], table.nums[0]
    return (
        f"SELECT {a}, {b} FROM {t} WHERE {key} <= {n}",
        f"SELECT {a}, {b} FROM {t} WHERE {key} < {n + 1}",
        f"SELECT {a}, {b} FROM {t} WHERE {n} >= {key}",
        f"SELECT {t}.{a}, {t}.{b} FROM {t} WHERE {t}.{key} <= {n}",
        f"SELECT {a}, {b} FROM {t} WHERE {key} BETWEEN 1 AND {n}",
    )[variant]


def _scan_sql(table: Table, v: int, variant: int) -> str:
    """A grouped aggregate over (nearly) every row; all variants agree.

    Each step of v drops exactly one row, so different v give different sums.
    """
    t, key, g, m = table.name, table.key, table.cats[0], table.nums[0]
    agg = f"SUM({m}), COUNT(*)"
    return (
        f"SELECT {g}, {agg} FROM {t} WHERE {key} >= {v} GROUP BY {g}",
        f"SELECT {g}, {agg} FROM {t} WHERE {v} <= {key} GROUP BY {g}",
        f"SELECT {g}, {agg} FROM {t} WHERE {key} > {v - 1} GROUP BY {g}",
        f"SELECT s.{g}, SUM(s.{m}), COUNT(*) FROM {t} AS s WHERE s.{key} >= {v} GROUP BY s.{g}",
        f"SELECT {g}, {agg} FROM {t} WHERE {key} >= {v} GROUP BY {g} ORDER BY {g}",
    )[variant]


def _linker_json(topic: Table, neighbor: Table) -> str:
    keep = [c for c in topic.columns() if c != topic.texts[0]]
    near = [neighbor.key, *neighbor.cats[:1], *neighbor.nums[:1]]
    return (
        "{" + f'"{topic.name}": [' + ", ".join(f'"{c}"' for c in keep) + "], "
        f'"{neighbor.name}": [' + ", ".join(f'"{c}"' for c in near) + "]}"
    )


def _plan(
    qid: str,
    shape: Shape,
    db_id: str,
    db_path: str,
    tables: list[Table],
    topic: Table,
    base: int,
) -> Plan:
    """Plant one question: group g of the shape gets parameter base + g."""
    by_name = {t.name: t for t in tables}
    neighbor = by_name[topic.ref]
    bystander = next(t for t in tables if t.name not in (topic.name, neighbor.name))
    groups = sorted({s for s in shape.slots if s.isupper()} | {shape.gold})
    param = {g: base + i for i, g in enumerate(groups)}

    def sql(group: str, variant: int) -> str:
        if shape.kind == "scan":
            return _scan_sql(topic, param[group], variant)
        return _rows_sql(topic, param[group], variant)

    # a group's representative (its first slot) is what the judge sees; it
    # uses variant 0, and the planted winner's gets an ORDER BY that leaves
    # its rows unchanged but makes it the longest, which the judge prefers
    texts: list[str] = []
    seen: dict[str, int] = {}
    for slot, label in enumerate(shape.slots):
        if label == "x":
            texts.append(f"The answer is {sql(shape.gold, 0)}")
        elif label == "e":
            texts.append(f"SELECT {topic.cats[0]} FROM {topic.name}_old")
        else:
            member = seen.get(label, 0)
            seen[label] = member + 1
            text = sql(label, 0 if shape.repeat else member % SLOTS)
            if member == 0 and label == shape.winner:
                text += " ORDER BY 1"
            texts.append(text)
    replies = tuple(t if label == "x" else f"```sql\n{t}\n```" for t, label in zip(texts, shape.slots))
    chosen_label = shape.slots[shape.chosen]
    chosen_sql = "" if chosen_label == "x" else texts[shape.chosen]
    ok_choice = chosen_label.isupper()
    question = (
        f"{qid}: report {topic.cats[0]} and {topic.nums[0]} of {topic.name}"
        f" for parameter {param[shape.gold]:06d}"
    )
    return Plan(
        qid=qid,
        question=question,
        db_id=db_id,
        db_path=db_path,
        gold_sql=sql(shape.gold, 0),
        replies=replies,
        linker_reply=_linker_json(topic, neighbor),
        secondary_linker_reply=(
            "The question needs the topic table only." if shape.linker_fails
            else _linker_json(topic, neighbor)
        ),
        unfiltered_marker=f"# Table: {bystander.name}\n",
        table_only_marker=f"({topic.texts[0]}:",
        chosen_sql=chosen_sql,
        method=shape.method,
        calls=LINKER_CALLS + SLOTS + shape.judge_calls,
        ex=int(ok_choice and chosen_label == shape.gold),
    )


# -- the three workloads -----------------------------------------------------------

WARMUPS = 15  # enough for every set-up of a run


def _shape_sequence(rng: random.Random, mix: tuple[Shape, ...], blocks: int):
    """WARMUPS copies of the mix's first shape, then shuffled whole blocks.

    Whole blocks keep the mix exact in every prefix up to one block, so
    per-question means barely depend on how many questions a run completes.
    """
    yield from (mix[0],) * WARMUPS
    for _ in range(blocks):
        order = list(mix)
        rng.shuffle(order)
        yield from order


def _mixed_workload(
    name: str,
    seed: int,
    work_dir: Path,
    *,
    tables: int,
    rows: int,
    cats: int,
    nums: int,
    texts: int,
    blocks: int,
    latency_s: float,
    clients: int,
) -> Workload:
    rng = random.Random(f"{name}:{seed}")
    schema = _make_tables(rng, tables, rows, cats, nums, texts)
    db_id = f"{name}_{seed}"
    path = work_dir / f"{db_id}.sqlite"
    _write_db(path, schema, rng)
    plans, warmups = [], []
    for n, shape in enumerate(_shape_sequence(rng, MIX, blocks)):
        topic = rng.choice(schema)
        base = rng.randint(10, rows - SLOTS)
        plan = _plan(f"Q{n:06d}", shape, db_id, str(path), schema, topic, base)
        (warmups if n < WARMUPS else plans).append(plan)
    return Workload(name, latency_s, clients, len(MIX), {db_id: str(path)}, plans, warmups)


def latency_mix(seed: int, work_dir: Path, small: bool = False) -> Workload:
    """Small schema, 50 ms per model call, two clients, the full vote mix."""
    return _mixed_workload(
        "latency_mix", seed, work_dir, tables=6, rows=60, cats=1, nums=2, texts=1,
        blocks=4 if small else 60, latency_s=0.05, clients=2,
    )


def offline_wide(seed: int, work_dir: Path, small: bool = False) -> Workload:
    """120 wide tables, zero latency, one client, the full vote mix."""
    return _mixed_workload(
        "offline_wide", seed, work_dir,
        tables=6 if small else 120, rows=40, cats=6, nums=6, texts=6,
        blocks=4 if small else 400, latency_s=0.0, clients=1,
    )


def big_results(seed: int, work_dir: Path, small: bool = False) -> Workload:
    """One large fact table, zero latency, one client, large and scan results."""
    rng = random.Random(f"big_results:{seed}")
    fact_rows = 2_000 if small else 100_000
    taken: set[str] = set()
    names = [_word(rng, 6, taken) for _ in range(3)]

    def stems(table: str, k: int) -> tuple[str, ...]:
        return tuple(f"{table}_{_word(rng, 4, taken)}" for _ in range(k))

    fact = Table(names[0], fact_rows, names[1], stems(names[0], 2), stems(names[0], 3),
                 stems(names[0], 1))
    dims = [
        Table(names[i], rows, names[3 - i], stems(names[i], 1), stems(names[i], 1),
              stems(names[i], 1))
        for i, rows in ((1, 50), (2, 200))
    ]
    schema = [fact, *dims]
    db_id = f"big_results_{seed}"
    path = work_dir / f"{db_id}.sqlite"
    _write_db(path, schema, rng)
    plans, warmups = [], []
    for n, shape in enumerate(_shape_sequence(rng, BIG_MIX, 4 if small else 150)):
        if shape.kind == "rows":
            base = rng.randint(fact_rows // 25, fact_rows // 25 + 900)
        else:
            base = rng.randint(10, 99)
        plan = _plan(f"Q{n:06d}", shape, db_id, str(path), schema, fact, base)
        (warmups if n < WARMUPS else plans).append(plan)
    return Workload("big_results", 0.0, 1, len(BIG_MIX), {db_id: str(path)}, plans, warmups)


WORKLOADS = {
    "latency_mix": latency_mix,
    "offline_wide": offline_wide,
    "big_results": big_results,
}
