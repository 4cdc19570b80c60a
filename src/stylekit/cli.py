"""Command-line entry point.

Subcommands: analyze, css, diff, score, pairs, train, embed,
eval-retrieval, corpus. Data goes to stdout, diagnostics to stderr.
Exit codes: 0 success, 1 usage error, 2 bad input (an ``InputError``, or an
OS error on a path you named), 3 internal error. With ``--json``, errors are
emitted on stderr as one-line JSON. ``--out`` of a report (analyze, css, diff,
score, embed, eval-retrieval) gets the CSV printed under ``--csv``, or else the
JSON document; for corpus, pairs and train it is the data path.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

# numpy and the modules that need it load inside the commands that use them
# (pairs, train, embed, eval-retrieval, corpus), so analyze, css, diff and score
# start without them and run where numpy is not installed.
from . import features, metrics
from .lexer import InputError

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INPUT = 2
EXIT_INTERNAL = 3


class UsageError(Exception):
    pass


class InvalidConfig(InputError, ValueError):
    """A ``--config`` line that is not ``key=value``, or a value that its cast rejects."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _read(path: str) -> str:
    p = Path(path)
    if not p.exists():
        raise FileNotFoundError(f"no such file: {path}")
    return p.read_text(encoding="utf-8-sig")


def _load_config(path: str | None) -> dict[str, str]:
    """Optional key=value config; unknown keys are ignored, flags win."""
    if not path:
        return {}
    out = {}
    for raw in _read(path).splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise InvalidConfig(f"config line is not key=value: {raw!r}")
        key, value = line.split("=", 1)
        out[key.strip().replace("-", "_")] = value.strip()
    return out


def _merge_config(args: argparse.Namespace, config: dict[str, str]) -> None:
    casts = {
        "seed": int, "max_tokens": int, "epochs": int, "batch": int,
        "temp": float, "lr": float, "lambda_": float, "k": int,
        "max_per_file": int, "ce": float,
    }
    for key, value in config.items():
        attr = "lambda_" if key == "lambda" else key
        if getattr(args, attr, None) is None:
            try:
                setattr(args, attr, casts.get(attr, str)(value))
            except ValueError as exc:
                raise InvalidConfig(f"config value {key} = {value!r}: {exc}") from exc


def build_parser() -> _Parser:
    parser = _Parser(prog="stylekit", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--json", action="store_true", help="machine-readable output")
        p.add_argument("--csv", action="store_true", help="CSV output where supported")
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--lenient", action="store_true")
        p.add_argument("--config", default=None, help="key=value config file")
        p.add_argument("--out", default=None)

    p = sub.add_parser("analyze", help="emit the 34-feature style vector")
    p.add_argument("file")
    common(p)

    p = sub.add_parser("css", help="naming-style similarity of two files")
    p.add_argument("file_a")
    p.add_argument("file_b")
    common(p)

    p = sub.add_parser("diff", help="per-feature delta table for two files")
    p.add_argument("file_a")
    p.add_argument("file_b")
    common(p)

    p = sub.add_parser("score", help="full metric report for a candidate/reference pair")
    p.add_argument("--candidate", required=True)
    p.add_argument("--reference", required=True)
    p.add_argument("--ce", type=float, default=None,
                   help="externally computed cross-entropy; adds total_loss")
    p.add_argument("--lambda", dest="lambda_", type=float, default=None)
    common(p)

    p = sub.add_parser("pairs", help="build contrastive pairs from a corpus")
    p.add_argument("input", help="JSONL corpus or directory of source files")
    p.add_argument("--max-tokens", type=int, default=None)
    p.add_argument("--max-per-file", type=int, default=None)
    common(p)

    p = sub.add_parser("train", help="train the dual-tower encoder")
    p.add_argument("--pairs", required=True, help="pairs JSONL")
    p.add_argument("--epochs", type=int, default=None)
    p.add_argument("--batch", type=int, default=None)
    p.add_argument("--temp", type=float, default=None)
    p.add_argument("--lr", type=float, default=None)
    p.add_argument("--symmetric", action="store_true")
    common(p)

    p = sub.add_parser("embed", help="embed a file with a trained encoder")
    p.add_argument("file")
    p.add_argument("--ckpt", required=True)
    p.add_argument("--tower", choices=("style", "code"), default="style")
    common(p)

    p = sub.add_parser("eval-retrieval", help="recall@k of a trained encoder")
    p.add_argument("--pairs", required=True)
    p.add_argument("--ckpt", required=True)
    p.add_argument("--k", type=int, default=None)
    common(p)

    p = sub.add_parser("corpus", help="ingest, filter, split, precompute styles")
    p.add_argument("input")
    p.add_argument("--max-tokens", type=int, default=None)
    p.add_argument("--split", default=None,
                   help="comma list like train=0.99,valid=0.01")
    p.add_argument("--precompute", action="store_true")
    common(p)

    return parser


def _emit(args, doc: dict, text: str) -> None:
    if getattr(args, "json", False):
        print(json.dumps(doc))
    else:
        print(text)


def _report(args, doc: dict, text: str, csv: str | None = None) -> None:
    """Print a report, and write it to ``--out`` if given. Under ``--csv`` a
    report with a CSV form prints it, and ``--out`` gets the same text;
    otherwise ``--out`` gets the JSON document that ``--json`` prints."""
    if args.csv and csv is not None:
        sys.stdout.write(csv)
        saved = csv
    else:
        _emit(args, doc, text)
        saved = json.dumps(doc) + "\n"
    if args.out:
        Path(args.out).write_text(saved, encoding="utf-8", newline="")


def _cmd_analyze(args) -> int:
    raw = features.analyze(_read(args.file), lenient=bool(args.lenient))
    vec = features.normalize(raw)
    doc = features.to_json_document(raw, vec)
    text = "\n".join(f"{name:26s} {value:.6g}" for name, value in doc["raw"].items())
    _report(args, doc, text, features.to_csv(raw, vec))
    return EXIT_OK


def _vec_of(path: str, lenient: bool) -> features.StyleVector:
    return features.normalize(features.analyze(_read(path), lenient=lenient))


def _cmd_css(args) -> int:
    value = metrics.css(_vec_of(args.file_a, args.lenient),
                        _vec_of(args.file_b, args.lenient))
    _report(args, {"css": value}, repr(value))
    return EXIT_OK


_SECTIONS = (
    ("naming", features.NAMING_SLICE),
    ("layout", features.LAYOUT_SLICE),
    ("structural", features.STRUCTURAL_SLICE),
)


def _cmd_diff(args) -> int:
    raw_a = features.analyze(_read(args.file_a), lenient=bool(args.lenient))
    raw_b = features.analyze(_read(args.file_b), lenient=bool(args.lenient))
    doc = {
        section: [{"feature": name, "a": a, "b": b, "delta": b - a} for name, a, b
                  in zip(features.REGISTRY[sl], raw_a.values[sl], raw_b.values[sl])]
        for section, sl in _SECTIONS
    }
    width = max(len(n) for n in features.REGISTRY)
    text = []
    for section, rows in doc.items():
        text.append(f"[{section}]")
        text.extend(f"  {row['feature']:<{width}}  {row['a']:>12.6g}  {row['b']:>12.6g}"
                    f"  {row['delta']:>+12.6g}" for row in rows)
    _report(args, doc, "\n".join(text))
    return EXIT_OK


def _cmd_score(args) -> int:
    candidate = _read(args.candidate)
    reference = _read(args.reference)
    report = metrics.score(candidate, reference)
    doc = report.as_dict()
    if args.ce is not None:
        weight = {} if args.lambda_ is None else {"weight": args.lambda_}
        doc["total_loss"] = metrics.total_loss(
            args.ce, report.style_loss, metrics.LossConfig(**weight)
        )
    header = ["css", "bleu4", "rouge1_f1", "rouge2_f1", "rougeL_f1", "style_loss"]
    row = [report.css, report.bleu4, report.rouge1.f1, report.rouge2.f1,
           report.rougeL.f1, report.style_loss]
    text = [f"css        {report.css:.6f}", f"bleu4      {report.bleu4:.6f}"]
    text.extend(f"{name:10s} p={r.precision:.6f} r={r.recall:.6f} f1={r.f1:.6f}"
                for name, r in (("rouge1", report.rouge1), ("rouge2", report.rouge2),
                                ("rougeL", report.rougeL)))
    text.append(f"style_loss {report.style_loss:.6g}")
    if "total_loss" in doc:
        header.append("total_loss")
        row.append(doc["total_loss"])
        text.append(f"total_loss {doc['total_loss']:.6g}")
    csv = ",".join(header) + "\n" + ",".join(repr(v) for v in row) + "\n"
    _report(args, doc, "\n".join(text), csv)
    return EXIT_OK


def _load_corpus_input(path: str, max_tokens: int | None, lenient: bool):
    from . import corpus as corpus_mod

    cap = {} if max_tokens is None else {"max_tokens": max_tokens}
    return corpus_mod.ingest(path, lenient=lenient, **cap)


def _cmd_pairs(args) -> int:
    from . import contrastive

    corp = _load_corpus_input(args.input, args.max_tokens, bool(args.lenient))
    pairs = contrastive.build_pairs(
        corp, seed=args.seed or 0, max_pairs_per_file=args.max_per_file
    )
    if args.out:
        contrastive.pairs_to_jsonl(pairs, args.out)
        _emit(args, {"pairs": len(pairs), "out": args.out},
              f"wrote {len(pairs)} pairs to {args.out}")
    elif args.json:
        print(json.dumps({"pairs": [vars(p) for p in pairs]}))
    else:
        for p in pairs:
            print(json.dumps(vars(p)))
    return EXIT_OK


def _cmd_train(args) -> int:
    from . import contrastive

    pairs = contrastive.pairs_from_jsonl(args.pairs)
    given = {"epochs": args.epochs, "batch_size": args.batch, "temperature": args.temp,
             "lr": args.lr, "seed": args.seed}
    cfg = contrastive.TrainConfig(
        symmetric_loss=bool(args.symmetric),
        **{name: value for name, value in given.items() if value is not None},
    )
    out = args.out or "encoder.ckpt"
    log_path = Path(out).with_suffix(".log.csv")

    def log_fn(entry):
        print(f"epoch {entry.epoch:3d}  loss {entry.mean_loss:.6f}  "
              f"{entry.wall_ms:.0f} ms", file=sys.stderr)

    model, logs = contrastive.train(
        pairs, cfg, checkpoint_path=out, log_path=log_path, log_fn=log_fn
    )
    _emit(args, {
        "checkpoint": str(out), "log": str(log_path),
        "epochs": len(logs), "final_loss": logs[-1].mean_loss,
    }, f"saved {out} (final loss {logs[-1].mean_loss:.6f}, log {log_path})")
    return EXIT_OK


def _cmd_embed(args) -> int:
    import numpy as np

    from . import checkpoint as ckpt, contrastive

    model = ckpt.load(args.ckpt)
    texts = [_read(args.file)]
    if args.tower == "style":
        (given,) = contrastive.style_inputs(texts)
    else:
        (given,), _ = contrastive.code_inputs(model.code, texts)
    if isinstance(given, InputError):
        raise given
    emb = (model.style.forward(given) if args.tower == "style"
           else model.code.embed_rows([given])[0])
    values = [float(x) for x in np.asarray(emb).ravel()]
    _report(args, {"tower": args.tower, "dim": len(values), "embedding": values},
            " ".join(f"{v:.6g}" for v in values))
    return EXIT_OK


def _cmd_eval_retrieval(args) -> int:
    from . import checkpoint as ckpt, contrastive

    model = ckpt.load(args.ckpt)
    pairs = contrastive.pairs_from_jsonl(args.pairs)
    k = 1 if args.k is None else args.k
    recall = contrastive.eval_retrieval(model, pairs, k)
    _report(args, {"k": k, "recall": recall, "pairs": len(pairs)},
            f"recall@{k} = {recall:g} over {len(pairs)} pairs")
    return EXIT_OK


def _parse_split_arg(arg: str) -> dict[str, float]:
    from . import corpus as corpus_mod

    ratios = {}
    for part in arg.split(","):
        if not part.strip():
            continue
        name, _, value = part.partition("=")
        try:
            ratios[name.strip()] = float(value)
        except ValueError:
            raise corpus_mod.RatioError(f"bad split component {part!r}") from None
    return ratios


def _cmd_corpus(args) -> int:
    from . import corpus as corpus_mod

    corp = _load_corpus_input(args.input, args.max_tokens, bool(args.lenient))
    if args.split:
        corp = corpus_mod.split(corp, _parse_split_arg(args.split), args.seed or 0)
    if args.precompute:
        corp = corpus_mod.precompute_styles(corp)
    if args.out:
        corpus_mod.save_jsonl(corp, args.out)
    doc = corp.manifest.as_dict()
    doc["records"] = len(corp.records)
    if args.out:
        doc["out"] = args.out
    _emit(args, doc, json.dumps(doc, indent=2))
    return EXIT_OK


_COMMANDS = {
    "analyze": _cmd_analyze,
    "css": _cmd_css,
    "diff": _cmd_diff,
    "score": _cmd_score,
    "pairs": _cmd_pairs,
    "train": _cmd_train,
    "embed": _cmd_embed,
    "eval-retrieval": _cmd_eval_retrieval,
    "corpus": _cmd_corpus,
}

# Bad input; anything else is our bug. OSError covers the paths named and a closed stdout.
_INPUT_ERRORS = (OSError, UnicodeDecodeError, json.JSONDecodeError, InputError)


def _report_error(args, code: int, exc: BaseException) -> int:
    if args is not None and getattr(args, "json", False):
        print(json.dumps({
            "error": type(exc).__name__, "message": str(exc), "code": code,
        }), file=sys.stderr)
    else:
        print(f"stylekit: error: {exc}", file=sys.stderr)
    return code


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = None
    try:
        args = parser.parse_args(argv)
        _merge_config(args, _load_config(getattr(args, "config", None)))
        return _COMMANDS[args.command](args)
    except UsageError as exc:
        return _report_error(args, EXIT_USAGE, exc)
    except _INPUT_ERRORS as exc:
        return _report_error(args, EXIT_INPUT, exc)
    except Exception as exc:  # anything unexpected
        return _report_error(args, EXIT_INTERNAL, exc)


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
