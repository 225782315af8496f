"""Command-line pipeline: synthesize, train, score, normalize, calibrate,
route and evaluate — one subcommand per stage, composable through files.

Every subcommand exits 0 on success with outputs written atomically, and
nonzero with a single-line `asvbackend: <kind>: <message>` on stderr
otherwise. Each error class carries its kind and stable exit code
(see `exceptions`); a missing input file is kind `missing-file`, code 3.
Each output is checked (`data.check_output`) before the stage reads its
first input, and each input when its stage opens it (`data.open_input`). A
warning prints as one `asvbackend: warning: <message>` line. A preprocessor
is fitted by `train-plda` and lives in its side bundle; `train-plda --pre`
trains in another side bundle's preprocessed space.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import os
import sys
import warnings

import numpy as np

from . import calibration as cal
from . import data, fourcov, metrics, modelio, plda, routing, scorenorm, synth
from .exceptions import BackendError, DomainError, NumericalError, ParameterError, prefixed


def _training_rows(rows, label, speaker_map_path, pre, aggregate):
    """Training vectors in model space, each vector's speaker code and the speaker ids.

    Rows, which `label` names in a width or length-normalization error,
    are checked against `pre` before the speaker map is read, then pass
    through `plda.to_model_space`. With `aggregate` = N, each speaker's
    rows, in file order, form consecutive chunks of N (`plda.chunk_models`),
    and each chunk becomes one unit-norm average (a pseudo enrollment
    model); a row that cannot be mapped is still named by its own id.
    """
    data.check_width(rows, pre.dim, label)
    speaker_map = data.read_id_map(speaker_map_path) if speaker_map_path else None
    speaker_ids, codes = data.speaker_codes(rows.ids, speaker_map)
    models = None
    if aggregate:
        models, codes = plda.chunk_models(speaker_ids, codes, aggregate)
    return plda.to_model_space(rows, pre, label, models), speaker_ids, codes


def _map_digest(speaker_map_path) -> str:
    """The SHA-256 of a speaker map, or "" for none: the second part of a side's training key."""
    return data.content_digest(speaker_map_path) if speaker_map_path else ""


def _stored_stats(bundle, stats, key, embeddings, speaker_map_path, aggregate=None):
    """`stats`, which side bundle `bundle` stores under `key`, if these training inputs gave them, else a
    `ParameterError` naming the bundle and what differs. The vector file is hashed first and the map only
    if the file matches, so a missing file fails as reading it would; then `aggregate`, if given, is compared."""
    digest, map_digest, chunk = key
    if data.content_digest(embeddings) != digest:
        problem = "stores no training statistics" if key == modelio.NO_KEY else f"was not trained on {embeddings}"
    elif _map_digest(speaker_map_path) != map_digest:
        problem = (f"was not trained with speaker map {speaker_map_path}" if speaker_map_path
                   else "was trained with a speaker map, and none is given")
    elif aggregate is not None and aggregate != chunk:
        problem = f"was trained with --aggregate {chunk}, not --enroll-aggregate {aggregate}"
    else:
        return stats
    raise ParameterError(f"{bundle} {problem}")


def _option_type(parse, name):
    """An argparse type reading a number under the `data` number grammar; a value it refuses
    exits 2 with argparse's 'invalid <name> value' error."""

    def convert(text):
        return parse(text)

    convert.__name__ = name
    return convert


_INT, _FLOAT = _option_type(data.parse_int, "int"), _option_type(data.parse_float, "float")


def _cmd_synth(args) -> int:
    existing = os.path.abspath(args.out_dir)
    while not os.path.lexists(existing):  # the nearest existing path must be a directory
        existing = os.path.dirname(existing)
    if not os.path.isdir(existing):
        raise FileNotFoundError(f"cannot create directory {args.out_dir}: {existing} is not a directory")
    for flag, count in (("--nontargets", args.nontargets), ("--cohort-speakers", args.cohort_speakers)):
        if count < 0:
            raise ParameterError(f"{flag} must be non-negative, got {count}")
    test_rank = args.rank if args.test_rank is None else args.test_rank
    seeds = np.random.SeedSequence(args.seed).spawn(4)
    train_seed, eval_seed, cohort_seed, trial_seed = (int(s.generate_state(1)[0]) for s in seeds)
    train_cfg = synth.GenConfig(
        dim=args.dim, enroll_rank=args.rank, test_rank=test_rank, n_speakers=args.train_speakers,
        enroll_segments=args.enroll_segs * args.train_enroll_samples, test_segments=args.train_test_segs,
        seed=train_seed, snr=args.snr, coupling_strength=args.coupling, test_noise_inflation=args.kappa,
        test_rotation=args.rotation, test_mean_shift=args.mean_shift, test_noise_jitter=args.jitter,
        augment_copies=args.augment_copies, speaker_prefix=args.id_prefix + "tr",
    )
    # the truth is drawn once, from the training config, and shared by all three sets
    train_cfg = dataclasses.replace(train_cfg, truth=synth.make_ground_truth(train_cfg))
    # augmentation is training-only: eval and cohort models keep their real segment counts
    eval_cfg = dataclasses.replace(
        train_cfg, n_speakers=args.eval_speakers, enroll_segments=args.enroll_segs,
        test_segments=args.eval_test_segs, seed=eval_seed, speaker_prefix=args.id_prefix + "ev",
        test_noise_jitter=args.jitter if args.eval_jitter is None else args.eval_jitter, augment_copies=0,
    )
    cohort_cfg = dataclasses.replace(
        eval_cfg, n_speakers=args.cohort_speakers, test_segments=1, seed=cohort_seed,
        speaker_prefix=args.id_prefix + "coh",
    ) if args.cohort_speakers else None
    os.makedirs(args.out_dir, exist_ok=True)
    path = functools.partial(os.path.join, args.out_dir)

    def write(name, groups, model=None):
        """Write the groups' rows, each named `<speaker>-<model>` if `model` is given; return the ids."""
        ids = [f"{g.speaker_id}-{model}" if model else m.id for g in groups for m in g.members]
        matrix = np.vstack([g.matrix() for g in groups])
        data.write_embeddings(path(name), data.EmbeddingTable.from_columns(ids, matrix))
        return ids

    train_enroll, train_test, _ = synth.sample_dataset(train_cfg)
    write("train_enroll.embs", train_enroll)
    write("train_test.embs", train_test)
    # eval and cohort enrollment rows carry their model's id; scoring averages rows sharing an id
    if cohort_cfg:
        cohort_enroll, cohort_test, _ = synth.sample_dataset(cohort_cfg)
        write("cohort_enroll.embs", cohort_enroll, "cmodel")
        write("cohort_test.embs", cohort_test)
    enroll, test, _ = synth.sample_dataset(eval_cfg)
    write("eval_enroll.embs", enroll, "model")
    test_ids = write("eval_test.embs", test)
    model_ids = [f"{g.speaker_id}-model" for g in enroll]
    data.write_id_map(path("enroll_meta.txt"), {m: str(len(g.members)) for m, g in zip(model_ids, enroll)})
    data.write_id_map(path("test_meta.txt"), dict.fromkeys(test_ids, args.language))
    # each model's target rows, then a sorted draw of the other speakers' test rows
    speaker = np.repeat(np.arange(len(test)), [len(g.members) for g in test])
    rng = np.random.default_rng(trial_seed)
    picks = []
    for s in range(len(enroll)):
        impostors = np.flatnonzero(speaker != s)
        drawn = rng.choice(len(impostors), size=min(args.nontargets, len(impostors)), replace=False)
        picks.append(np.concatenate([np.flatnonzero(speaker == s), impostors[np.sort(drawn)]]))
    models, rows = np.repeat(np.arange(len(picks)), [len(p) for p in picks]), np.concatenate(picks)
    data.write_trials(path("eval.trials"), data.TrialList.from_columns(
        [model_ids[m] for m in models.tolist()], [test_ids[r] for r in rows.tolist()],
        (speaker[rows] == models).tolist(),
    ))
    modelio.save_ground_truth(path("truth.npz"), train_cfg.truth)
    print(f"wrote synthetic dataset to {args.out_dir}")
    return 0


def _cmd_train_plda(args) -> int:
    rows = data.read_embeddings(args.embeddings)
    if args.pre:
        pre = modelio.load_plda_side(args.pre)[1]
    else:
        with prefixed(args.embeddings, NumericalError):
            pre = plda.fit_preprocessor(rows)
    label = f"training ({args.embeddings})"
    table, speaker_ids, codes = _training_rows(rows, label, args.speaker_map, pre, args.aggregate)
    stats = plda.speaker_stats(table.matrix, speaker_ids, codes)
    model = plda.train_plda(stats, rank=args.rank, iterations=args.iters)
    key = (data.content_digest(args.embeddings), _map_digest(args.speaker_map), args.aggregate)
    modelio.save_plda_side(args.out, model, pre, stats, key)
    print(f"wrote PLDA side model to {args.out} (dim {model.dim}, rank {model.rank})")
    return 0


def _cmd_fit_fourcov(args) -> int:
    model1, pre1, *stored1 = modelio.load_plda_side(args.enroll_model)
    model2, pre2, *stored2 = modelio.load_plda_side(args.test_model)
    # one side before the next: each side's files are hashed in turn
    stats1 = _stored_stats(args.enroll_model, *stored1, args.enroll_embeddings, args.speaker_map_enroll,
                           args.enroll_aggregate)
    stats2 = _stored_stats(args.test_model, *stored2, args.test_embeddings, args.speaker_map_test)
    shared = sorted(set(stats1.speaker_ids) & set(stats2.speaker_ids))
    if not shared:
        raise ParameterError("no speakers shared between the two training sets")
    model = fourcov.fit_coupling(model1, model2, (stats1.subset(shared), stats2.subset(shared)))
    modelio.save_fourcov(args.out, model, pre1, pre2)
    print(f"wrote two-sided model to {args.out} ({len(shared)} shared speakers)")
    return 0


def _cmd_interpolate(args) -> int:
    # the two sides share one preprocessor, so the in-domain statistics are what its training file gives
    model_in, pre, *training = modelio.load_plda_side(args.in_domain)
    model_out, pre_out, *_ = modelio.load_plda_side(args.out_domain)
    combined = plda.interpolate_plda(model_in, model_out, args.alpha)
    if not (np.array_equal(pre.mean, pre_out.mean) and np.array_equal(pre.whitener, pre_out.whitener)):
        raise ParameterError(f"{args.in_domain} and {args.out_domain} hold different preprocessors "
                             "(train the out-of-domain side with train-plda --pre <in-domain bundle>)")
    modelio.save_plda_side(args.out, combined, pre, *training)
    print(f"wrote interpolated model to {args.out} (alpha {args.alpha})")
    return 0


def _cmd_score(args) -> int:
    model, pre1, pre2 = modelio.load_fourcov(args.model)
    enrolls, tests = plda.read_model_space_pair(pre1, pre2, args.enroll, args.test)
    trials = data.read_trials(args.trials)
    kernel = fourcov.build_kernel(model)
    scores = fourcov.score_batch(kernel, enrolls, tests, trials)
    data.write_scores(scores, args.out)
    print(f"wrote {len(scores)} scores to {args.out}")
    return 0


def _cmd_snorm(args) -> int:
    try:
        top_k = None if args.top_k == "all" else data.parse_int(args.top_k)
    except ValueError:
        raise ParameterError(f"--top-k must be an integer or 'all', got '{args.top_k}'") from None
    scorenorm.check_top_k(top_k)
    model, pre1, pre2 = modelio.load_fourcov(args.model)
    enrolls, tests = plda.read_model_space_pair(pre1, pre2, args.enroll, args.test)
    scores = data.read_scores(args.scores)
    cohort_pair = plda.read_model_space_pair(pre1, pre2, args.cohort_enroll, args.cohort_test, cohort=True)
    cohorts = scorenorm.CohortSet(*cohort_pair, top_k)
    kernel = fourcov.build_kernel(model)
    with prefixed(f"normalizing {args.scores}", DomainError):
        normalized = scorenorm.snorm_batch(kernel, cohorts, enrolls, tests, scores)
    data.write_scores(normalized, args.out)
    print(f"wrote {len(normalized)} normalized scores to {args.out}")
    return 0


def _cmd_calibrate(args) -> int:
    if (args.trials is None) == (args.model is None):
        raise ParameterError("pass exactly one of --trials (fit) or --model (apply)")
    if args.model is not None and args.condition is not None:
        raise ParameterError("--condition applies only when fitting (--trials)")
    scores = data.read_scores(args.scores)
    if args.trials:
        trials = data.read_trials(args.trials)
        with prefixed(args.scores, NumericalError):
            model = cal.fit_calibration(scores, trials)
        cal.write_calibration(args.out, model, args.condition)
        print(f"wrote calibration to {args.out} (scale {model.scale:.6g}, offset {model.offset:.6g})")
    else:
        model, _ = cal.read_calibration(args.model)
        with prefixed(f"calibrating {args.scores}", DomainError):
            calibrated = cal.apply_calibration(model, scores)
        data.write_scores(calibrated, args.out)
        print(f"wrote {len(scores)} calibrated scores to {args.out}")
    return 0


def _cmd_route_score(args) -> int:
    config = routing.load_routing_config(args.config)
    trials = data.read_trials(args.trials)
    # every id and condition the trials use is checked before a stack is read
    routing.used_conditions(routing.classify_trials(config, trials), config.conditions)
    pipelines = routing.load_pipelines(config)
    # each evaluation file is checked against every stack before the next is opened
    labels = (f"enrollment ({args.enroll})", f"test ({args.test})")
    enrolls = data.read_embeddings(args.enroll)
    for pipeline in pipelines.values():
        data.check_width(enrolls, pipeline.pre_enroll.dim, labels[0])
    tests = data.read_embeddings(args.test)
    for pipeline in pipelines.values():
        data.check_width(tests, pipeline.pre_test.dim, labels[1])
    scores = routing.route_and_score(config, pipelines, enrolls, tests, trials, labels)
    data.write_scores(scores, args.out)
    print(f"wrote {len(scores)} routed scores to {args.out}")
    return 0


def _cmd_evaluate(args) -> int:
    scores = data.read_scores(args.scores)
    trials = data.read_trials(args.trials)
    params = metrics.DcfParams(args.p_target, args.c_miss, args.c_fa)
    eer = metrics.compute_eer(scores, trials)
    min_dcf = metrics.compute_min_dcf(scores, trials, params)
    print(f"EER% {100.0 * eer:.2f}")
    print(f"minDCF {min_dcf:.4f}")
    if args.det_out:
        with data.atomic_write(args.det_out) as fh:
            fh.write("# p_fa p_miss\n")
            for p_fa, p_miss in metrics.det_points(scores, trials):
                fh.write(f"{repr(p_fa)} {repr(p_miss)}\n")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="asvbackend",
        description="Speaker-verification back-end over fixed-dimension embeddings.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a seeded synthetic two-sided dataset")
    p.add_argument("--out-dir", required=True)
    p.add_argument("--dim", type=_INT, default=16)
    p.add_argument("--rank", type=_INT, default=4)
    p.add_argument("--test-rank", type=_INT, default=None)
    p.add_argument("--train-speakers", type=_INT, default=500)
    p.add_argument("--eval-speakers", type=_INT, default=200)
    p.add_argument("--cohort-speakers", type=_INT, default=0)
    p.add_argument("--enroll-segs", type=_INT, default=3, help="segments per enrollment sample")
    p.add_argument(
        "--train-enroll-samples",
        type=_INT,
        default=2,
        help="enrollment-style samples per training speaker",
    )
    p.add_argument("--train-test-segs", type=_INT, default=3)
    p.add_argument("--eval-test-segs", type=_INT, default=2)
    p.add_argument("--snr", type=_FLOAT, default=1.0)
    p.add_argument("--coupling", type=_FLOAT, default=0.9)
    p.add_argument("--kappa", type=_FLOAT, default=1.0, help="test-side residual inflation")
    p.add_argument("--rotation", type=_FLOAT, default=0.0, help="test loading rotation (radians)")
    p.add_argument("--mean-shift", type=_FLOAT, default=0.0)
    p.add_argument("--jitter", type=_FLOAT, default=0.0, help="per-segment test noise jitter")
    p.add_argument(
        "--eval-jitter", type=_FLOAT, default=None,
        help="jitter for eval and cohort sets (defaults to --jitter)",
    )
    p.add_argument("--augment-copies", type=_INT, default=0)
    p.add_argument("--nontargets", type=_INT, default=50, help="impostor tests per enrollment")
    p.add_argument("--language", choices=routing.TEST_LANGUAGES, default="primary")
    p.add_argument("--id-prefix", default="")
    p.add_argument("--seed", type=_INT, default=0)
    p.set_defaults(func=_cmd_synth)

    p = sub.add_parser("train-plda", help="fit preprocessing and PLDA for one side")
    p.add_argument("--embeddings", required=True)
    p.add_argument("--speaker-map", default=None, help="two-column id->speaker file")
    p.add_argument("--rank", type=_INT, default=None)
    p.add_argument("--iters", type=_INT, default=10)
    p.add_argument("--aggregate", type=_INT, default=0, help="average consecutive chunks of N segments")
    p.add_argument("--pre", default=None, help="train in the preprocessed space of this side bundle")
    p.add_argument("--out", required=True, help="side model bundle (.npz) to write")
    p.set_defaults(func=_cmd_train_plda)

    p = sub.add_parser("fit-fourcov", help="fit the factor coupling between two side models")
    p.add_argument("--enroll-model", required=True)
    p.add_argument("--test-model", required=True)
    p.add_argument("--enroll-embeddings", required=True)
    p.add_argument("--test-embeddings", required=True)
    p.add_argument("--enroll-aggregate", type=_INT, default=0)
    p.add_argument("--speaker-map-enroll", default=None)
    p.add_argument("--speaker-map-test", default=None)
    p.add_argument("--out", required=True, help="two-sided model bundle (.npz) to write")
    p.set_defaults(func=_cmd_fit_fourcov)

    p = sub.add_parser("interpolate", help="convex-combine two PLDA side models")
    p.add_argument("--in-domain", required=True)
    p.add_argument("--out-domain", required=True)
    p.add_argument("--alpha", type=_FLOAT, required=True)
    p.add_argument("--out", required=True, help="interpolated side model bundle to write")
    p.set_defaults(func=_cmd_interpolate)

    p = sub.add_parser("score", help="score trials with a two-sided model bundle")
    p.add_argument("--model", required=True)
    p.add_argument("--enroll", required=True)
    p.add_argument("--test", required=True)
    p.add_argument("--trials", required=True)
    p.add_argument("--out", required=True, help="raw score file to write")
    p.set_defaults(func=_cmd_score)

    p = sub.add_parser("snorm", help="adaptive symmetric score normalization")
    p.add_argument("--model", required=True)
    p.add_argument("--scores", required=True)
    p.add_argument("--enroll", required=True)
    p.add_argument("--test", required=True)
    p.add_argument("--cohort-enroll", required=True)
    p.add_argument("--cohort-test", required=True)
    p.add_argument("--top-k", default=str(scorenorm.DEFAULT_TOP_K), help="integer or 'all'")
    p.add_argument("--out", required=True, help="normalized score file to write")
    p.set_defaults(func=_cmd_snorm)

    p = sub.add_parser("calibrate", help="fit or apply an affine score calibration")
    p.add_argument("--scores", required=True)
    p.add_argument("--trials", default=None, help="labeled trials: fit mode")
    p.add_argument("--model", default=None, help="calibration file: apply mode")
    p.add_argument("--condition", choices=routing.CONDITIONS, default=None)
    p.add_argument("--out", required=True, help="calibration file (fit) or calibrated scores (apply)")
    p.set_defaults(func=_cmd_calibrate)

    p = sub.add_parser("route-score", help="trial-dependent scoring per routing config")
    p.add_argument("--config", required=True)
    p.add_argument("--enroll", required=True)
    p.add_argument("--test", required=True)
    p.add_argument("--trials", required=True)
    p.add_argument("--out", required=True, help="merged calibrated score file to write")
    p.set_defaults(func=_cmd_route_score)

    p = sub.add_parser("evaluate", help="EER / minDCF (and optional DET points)")
    p.add_argument("--scores", required=True)
    p.add_argument("--trials", required=True)
    p.add_argument("--p-target", type=_FLOAT, default=0.01)
    p.add_argument("--c-miss", type=_FLOAT, default=10.0)
    p.add_argument("--c-fa", type=_FLOAT, default=1.0)
    p.add_argument("--det-out", default=None, help="optional DET-point file to write")
    p.set_defaults(func=_cmd_evaluate)

    return parser


def _show_warning(message, *_) -> None:
    print(f"asvbackend: warning: {message}", file=sys.stderr)


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    # a warning is shown as one line; which warnings are shown is left to the filters
    shown, warnings.showwarning = warnings.showwarning, _show_warning
    try:
        # every output is checked before the stage reads its first input
        for output in (getattr(args, name, None) for name in ("out", "det_out")):
            if output is not None:
                data.check_output(output)
        return args.func(args)
    except FileNotFoundError as exc:
        print(f"asvbackend: missing-file: {exc}", file=sys.stderr)
        return 3
    except BackendError as exc:
        print(f"asvbackend: {exc.kind}: {exc}", file=sys.stderr)
        return exc.exit_code
    finally:
        warnings.showwarning = shown


if __name__ == "__main__":
    sys.exit(main())
