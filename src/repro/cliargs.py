"""The campaign flags and exit codes every ``sp2-*`` CLI shares.

One declaration of ``--seed/--days/--nodes/--users/--fault-profile`` and
``--workers/--shard-days``, validated at parse time (positive counts, a
known profile name), so a bad value exits 2 with argparse's one-line
error before any campaign starts.  Each CLI keeps its own defaults.

Exit codes (CONTRIBUTING.md): :data:`EXIT_OK` = success,
:data:`EXIT_OPERATIONAL` = the command ran but measured or served
nothing (or the service died), :data:`EXIT_USAGE` = bad arguments or
unknown names.
"""

from __future__ import annotations

import argparse

from repro.core.study import StudyConfig
from repro.faults.profile import PROFILES, FaultProfile
from repro.parallel.plan import DEFAULT_SHARD_DAYS

EXIT_OK, EXIT_OPERATIONAL, EXIT_USAGE = 0, 1, 2

#: ``--workers`` help where the flag shards each campaign.
_SHARD_WORKERS_HELP = (
    f"run each campaign as day-range shards on N worker processes "
    f"({DEFAULT_SHARD_DAYS}-day shards unless --shard-days is given; "
    "output depends on the shard plan, never on N)"
)


def positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def add_campaign_args(
    p: argparse.ArgumentParser,
    *,
    days: int,
    nodes: int = 144,
    users: int = 60,
    seed: bool = True,
    faults: bool = True,
) -> None:
    """Declare the campaign-shape flags with this CLI's defaults."""
    if seed:
        p.add_argument("--seed", type=int, default=0, help="campaign seed (default 0)")
    p.add_argument("--days", type=positive_int, default=days, help="campaign length in days")
    p.add_argument("--nodes", type=positive_int, default=nodes, help="cluster size")
    p.add_argument("--users", type=positive_int, default=users, help="user population size")
    if faults:
        p.add_argument(
            "--fault-profile",
            default=None,
            choices=sorted(PROFILES),
            metavar="NAME",
            help=f"inject faults from a named profile ({', '.join(sorted(PROFILES))}); "
            "omitted = healthy campaign",
        )


def add_execution_args(
    p: argparse.ArgumentParser, *, workers_help: str = _SHARD_WORKERS_HELP
) -> None:
    """Declare ``--workers`` and ``--shard-days``."""
    p.add_argument(
        "--workers", type=positive_int, default=None, metavar="N", help=workers_help
    )
    p.add_argument(
        "--shard-days",
        type=positive_int,
        default=None,
        metavar="K",
        help="days per shard; part of the experiment definition, and "
        "implies sharded execution even with one worker",
    )


def study_config(args: argparse.Namespace) -> StudyConfig:
    """The :class:`StudyConfig` the campaign-shape flags describe."""
    return StudyConfig(
        seed=getattr(args, "seed", 0),
        n_days=args.days,
        n_nodes=args.nodes,
        n_users=args.users,
        fault_profile=FaultProfile.resolve(getattr(args, "fault_profile", None)),
    )


def shard_plan(args: argparse.Namespace) -> int | None:
    """The ``shard_days`` a single-campaign CLI runs with.

    ``--workers N`` without ``--shard-days`` keeps its documented
    meaning: default-width shards on N processes.
    """
    if args.shard_days is None and args.workers is not None:
        return DEFAULT_SHARD_DAYS
    return args.shard_days
