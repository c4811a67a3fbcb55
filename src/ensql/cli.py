"""Command line entry points.

Every subcommand that talks to a model requires an explicit backend choice:
--live (HTTP, keyed by OPENAI_API_KEY / OPENAI_BASE_URL) or --replay FILE
(recorded fixtures).  --record FILE additionally captures traffic for later
replay.
"""
from __future__ import annotations

import argparse
import json
import logging
import os
import sys
from pathlib import Path

from .catalog import CatalogError, FilterLevel, introspect
from .config import ConfigError, DEFAULT_LINKER_PRIMARY, PipelineConfig
from .formats import FormatError, RepresentationFormat, render, render_all
from .gateway import (
    ChatBackend,
    DEFAULT_BASE_URL,
    ENV_API_KEY,
    ENV_BASE_URL,
    GatewayError,
    HashEmbeddingBackend,
    HttpChatBackend,
    HttpEmbeddingBackend,
    PriceTable,
    RecordingChatBackend,
    ReplayChatBackend,
)
from .generation import FewShotStore
from .harness import (
    BenchmarkItem,
    DatasetError,
    SweepError,
    aggregate_records,
    bounds_analysis,
    build_fewshot_store,
    ex_by_vote,
    link,
    linker_request,
    load_dataset,
    read_records,
    run_benchmark,
    sweep,
    PipelineRunner,
)
from .linking import (
    LinkingPrediction,
    LinkingResolutionError,
    derive_gold_linking,
    linking_metrics,
)

log = logging.getLogger(__name__)


def _add_backend_args(parser: argparse.ArgumentParser, required: bool = True) -> None:
    group = parser.add_mutually_exclusive_group(required=required)
    group.add_argument(
        "--live", action="store_true",
        help=f"call the HTTP API (needs {ENV_API_KEY}; {ENV_BASE_URL} overrides the endpoint)",
    )
    group.add_argument("--replay", metavar="FILE", help="serve responses from a recorded JSONL fixture")
    parser.add_argument("--record", metavar="FILE", help="append all responses to a JSONL fixture")


def _add_dataset_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--dataset", required=True, help="dataset root or questions JSON file")
    parser.add_argument("--split", default="dev", help="dataset split name (default: dev)")
    parser.add_argument("--db-root", help="directory holding {db_id}/{db_id}.sqlite")
    parser.add_argument("--limit", type=int, help="use only the first N questions")


def _resolve_backend(args: argparse.Namespace) -> ChatBackend:
    if getattr(args, "replay", None):
        backend: ChatBackend = ReplayChatBackend(args.replay)
    else:
        api_key = os.environ.get(ENV_API_KEY)
        if not api_key:
            raise GatewayError(f"--live requires the {ENV_API_KEY} environment variable")
        backend = HttpChatBackend(os.environ.get(ENV_BASE_URL, DEFAULT_BASE_URL), api_key)
    if getattr(args, "record", None):
        backend = RecordingChatBackend(backend, args.record)
    return backend


def _load_config(args: argparse.Namespace) -> PipelineConfig:
    if getattr(args, "config", None):
        return PipelineConfig.load(args.config)
    return PipelineConfig.default()


def _load_store(args: argparse.Namespace, config: PipelineConfig) -> FewShotStore | None:
    path = getattr(args, "fewshot_store", None) or config.fewshot_store_path
    return FewShotStore.load(path) if path else None


def _load_descriptions(args: argparse.Namespace, config: PipelineConfig) -> dict | None:
    path = getattr(args, "descriptions", None) or config.descriptions_path
    if not path:
        return None
    return json.loads(Path(path).read_text(encoding="utf-8"))


def _price_table(config: PipelineConfig) -> PriceTable:
    if config.price_table_path:
        return PriceTable.load(config.price_table_path)
    return PriceTable.default()


def cmd_run(args: argparse.Namespace) -> int:
    config = _load_config(args)
    items = load_dataset(args.dataset, args.split, args.db_root, args.limit)
    if not items:
        print("error: dataset is empty", file=sys.stderr)
        return 1
    backend = _resolve_backend(args)
    records, report = run_benchmark(
        config,
        items,
        backend,
        fewshot_store=_load_store(args, config),
        descriptions=_load_descriptions(args, config),
        out_path=args.out,
        workers=args.workers,
        record_timing=not args.replay,
        price_table=_price_table(config),
    )
    print(report.render_text())
    if args.out:
        print(f"\nwrote {len(records)} records to {args.out}")
    return 0


def cmd_ask(args: argparse.Namespace) -> int:
    config = _load_config(args)
    backend = _resolve_backend(args)
    item = BenchmarkItem(
        question_id="adhoc",
        db_id=Path(args.db).stem,
        question=args.question,
        gold_sql="",
        hint=args.hint or "",
        db_path=args.db,
    )
    with PipelineRunner(
        config,
        backend,
        fewshot_store=_load_store(args, config),
        descriptions=_load_descriptions(args, config),
        record_timing=not args.replay,
    ) as runner:
        record = runner.run_item(item)
    outcome = record.selection
    assert outcome is not None
    print(outcome.chosen_sql)
    chosen = record.candidates[outcome.chosen_index]
    log.info(
        "votes %s, confidence %s via %s (%d pairwise calls)",
        list(outcome.distribution), outcome.confidence.value,
        outcome.method.value, outcome.pairwise_calls,
    )
    if chosen.execution is not None and chosen.execution.preview:
        log.info("result preview: %s", chosen.execution.preview)
    elif chosen.execution is not None and not chosen.execution.ok:
        log.warning("chosen query failed to execute: %s", chosen.execution.error_text)
    return 0


def cmd_render(args: argparse.Namespace) -> int:
    catalog = introspect(args.db, sample_k=args.sample_k)
    if args.format == "all":
        for fmt, text in render_all(catalog).items():
            sys.stdout.write(f"=== {fmt.value} ===\n{text}\n")
    else:
        sys.stdout.write(render(catalog, RepresentationFormat.parse(args.format)))
    return 0


def cmd_link_eval(args: argparse.Namespace) -> int:
    config = _load_config(args)
    fmt = RepresentationFormat.parse(args.format)
    model = args.model or next(
        (e.linker_model for e in config.specs if e.linker_model), DEFAULT_LINKER_PRIMARY
    )
    items = load_dataset(args.dataset, args.split, args.db_root, args.limit)
    predictions, golds = [], []
    skipped = 0
    with PipelineRunner(config, _resolve_backend(args)) as runner:
        gateway = runner.gateway()
        for item in items:
            catalog = runner.catalog_for(item.db_id, item.db_path)
            try:
                gold = derive_gold_linking(item.gold_sql, catalog)
            except LinkingResolutionError as exc:
                log.warning("question %s: cannot resolve reference SQL (%s); skipped",
                            item.question_id, exc)
                skipped += 1
                continue
            request = linker_request(fmt, model, catalog, item, config.max_tokens)
            run = link(f"{fmt.value}:{model}", fmt, request, item, gateway)
            # a failed linker run scores as an empty prediction
            predictions.append(run.prediction or LinkingPrediction({}))
            golds.append(gold)

    if not predictions:
        print("error: no scorable questions", file=sys.stderr)
        return 1
    metrics = linking_metrics(predictions, golds)
    print(f"model {model}, schema format {fmt.value}")
    print(f"questions scored: {len(predictions)} (skipped {skipped})")
    print(f"tables : precision {metrics.table_precision:.4f}  "
          f"recall {metrics.table_recall:.4f}  f1 {metrics.table_f1:.4f}")
    print(f"columns: precision {metrics.column_precision:.4f}  "
          f"recall {metrics.column_recall:.4f}  f1 {metrics.column_f1:.4f}")
    return 0


def cmd_build_fewshot_store(args: argparse.Namespace) -> int:
    items = load_dataset(args.dataset, args.split, args.db_root, args.limit)
    if args.embedding_model:
        if not args.live:
            print("error: --embedding-model needs --live", file=sys.stderr)
            return 1
        api_key = os.environ.get(ENV_API_KEY)
        if not api_key:
            raise GatewayError(f"--live requires the {ENV_API_KEY} environment variable")
        http = HttpChatBackend(os.environ.get(ENV_BASE_URL, DEFAULT_BASE_URL), api_key)
        embedder = HttpEmbeddingBackend(args.embedding_model, http)
    else:
        embedder = HashEmbeddingBackend()
    store = build_fewshot_store(
        items, embedder, RepresentationFormat.parse(args.format), sample_k=args.sample_k
    )
    store.save(args.out)
    print(f"wrote {len(store)} examples to {args.out}")
    return 0


def cmd_sweep(args: argparse.Namespace) -> int:
    config = _load_config(args)
    formats = (
        [RepresentationFormat.parse(s) for s in args.formats.split(",")]
        if args.formats else list(RepresentationFormat)
    )
    levels = (
        [FilterLevel.parse(s) for s in args.levels.split(",")]
        if args.levels else list(FilterLevel)
    )
    items = load_dataset(args.dataset, args.split, args.db_root, args.limit)
    backend = _resolve_backend(args)
    results = sweep(
        config, items, backend, formats, levels, args.n,
        linker_model=args.linker_model,
        cap=args.max_combos,
        subset_fraction=args.subset,
        seed=args.seed,
        fewshot_store=_load_store(args, config),
    )
    shown = results[: args.top] if args.top else results
    print(f"{len(results)} combinations of size {args.n}; top {len(shown)}:")
    for result in shown:
        print(f"  ex {result.ex:.4f}  {', '.join(result.labels)}")
    return 0


def cmd_report(args: argparse.Namespace) -> int:
    records = read_records(args.records)
    table = PriceTable.load(args.price_table) if args.price_table else PriceTable.default()
    print(aggregate_records(records, table).render_text())
    if args.bounds:
        print("\naccuracy bounds by candidate count:")
        for row in bounds_analysis(records):
            print(f"  n={row.candidate_count}: items {row.items}  ex {row.ex:.4f}  "
                  f"lower {row.lower:.4f}  upper {row.upper:.4f}")
    if args.by_vote:
        print("\naccuracy by winning vote count:")
        for bucket in ex_by_vote(records):
            print(f"  votes={bucket.votes}: items {bucket.items}  "
                  f"ex {bucket.ex:.4f}  upper {bucket.upper:.4f}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ensql",
        description="ensemble text-to-SQL over SQLite databases",
    )
    parser.add_argument("-v", "--verbose", action="store_true", help="debug logging")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run the benchmark over a dataset")
    _add_dataset_args(p_run)
    _add_backend_args(p_run)
    p_run.add_argument("--config", help="pipeline config JSON")
    p_run.add_argument("--out", help="write one JSON record per question to this file")
    p_run.add_argument("--workers", type=int, help="parallel questions (default from config)")
    p_run.add_argument("--fewshot-store", help="retrieval store built by build-fewshot-store")
    p_run.add_argument("--descriptions", help="JSON of column descriptions per database")
    p_run.set_defaults(func=cmd_run)

    p_ask = sub.add_parser("ask", help="answer one question against one database")
    p_ask.add_argument("--db", required=True, help="SQLite database file")
    p_ask.add_argument("--question", required=True)
    p_ask.add_argument("--hint", help="extra context appended to the prompt")
    p_ask.add_argument("--config", help="pipeline config JSON")
    p_ask.add_argument("--fewshot-store")
    p_ask.add_argument("--descriptions")
    _add_backend_args(p_ask)
    p_ask.set_defaults(func=cmd_ask)

    p_render = sub.add_parser("render", help="print a schema representation of a database")
    p_render.add_argument("--db", required=True, help="SQLite database file")
    p_render.add_argument("--format", default="all",
                          help="format name or 'all' (default: all)")
    p_render.add_argument("--sample-k", type=int, default=3,
                          help="value examples per column (default: 3)")
    p_render.set_defaults(func=cmd_render)

    p_link = sub.add_parser("link-eval", help="score schema linking against reference SQL")
    _add_dataset_args(p_link)
    _add_backend_args(p_link)
    p_link.add_argument("--config", help="pipeline config JSON")
    p_link.add_argument("--format", default="compact_tagged",
                        help="schema format shown to the linker")
    p_link.add_argument("--model", help="linker model (default from config)")
    p_link.set_defaults(func=cmd_link_eval)

    p_store = sub.add_parser("build-fewshot-store",
                             help="embed dataset questions into a retrieval store")
    _add_dataset_args(p_store)
    _add_backend_args(p_store, required=False)
    p_store.add_argument("--out", required=True, help="store file to write")
    p_store.add_argument("--format", default="compact_tagged",
                         help="schema format stored with each example")
    p_store.add_argument("--sample-k", type=int, default=3)
    p_store.add_argument("--embedding-model",
                         help="HTTP embedding model (default: local hash embeddings)")
    p_store.set_defaults(func=cmd_build_fewshot_store)

    p_sweep = sub.add_parser("sweep",
                             help="rank candidate-slate combinations under regular voting")
    _add_dataset_args(p_sweep)
    _add_backend_args(p_sweep)
    p_sweep.add_argument("--config", help="pipeline config JSON")
    p_sweep.add_argument("--formats", help="comma-separated formats (default: all)")
    p_sweep.add_argument("--levels", help="comma-separated filter levels (default: all)")
    p_sweep.add_argument("--n", type=int, default=5, help="candidates per combination")
    p_sweep.add_argument("--max-combos", type=int, default=2000,
                         help="refuse sweeps larger than this many combinations")
    p_sweep.add_argument("--subset", type=float,
                         help="score a random fraction of the dataset")
    p_sweep.add_argument("--seed", type=int, default=0, help="subset sampling seed")
    p_sweep.add_argument("--linker-model", help="model for the shared linking pass")
    p_sweep.add_argument("--fewshot-store")
    p_sweep.add_argument("--top", type=int, default=10, help="combinations to print (0: all)")
    p_sweep.set_defaults(func=cmd_sweep)

    p_report = sub.add_parser("report", help="re-aggregate a records file")
    p_report.add_argument("--records", required=True, help="JSONL written by run --out")
    p_report.add_argument("--price-table", help="model price JSON")
    p_report.add_argument("--bounds", action="store_true",
                          help="print accuracy bounds by candidate count")
    p_report.add_argument("--by-vote", action="store_true",
                          help="print accuracy by winning vote count")
    p_report.set_defaults(func=cmd_report)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(
        stream=sys.stderr,
        level=logging.DEBUG if args.verbose else logging.INFO,
        format="%(levelname)s %(name)s: %(message)s",
    )
    try:
        return args.func(args)
    except (CatalogError, ConfigError, DatasetError, FormatError, GatewayError,
            SweepError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
