"""Commercial (U.S./Japanese) systems catalog.

Every CTP rating the paper quotes is carried verbatim in
``quoted_ctp_mtops``; configurations were back-solved from the
reconstruction's aggregation schedule, which lands the quoted ratings on
canonical configurations (e.g. the quoted Cray T3D ratings of 3,439 and
10,056 Mtops correspond to 64- and 512-node machines; the quoted CM-5
ratings of 5,194 / 10,457 / 14,410 Mtops to 128- / 512- / 1024-node
machines).  Entries with ``approx=True`` reconstruct era systems the paper
names without rating.

Controllability fields (installed base, price band, channel, size) follow
Chapter 3's discussion: SGI "several thousands of chassis" through a large
third-party network; Cray vector machines vendor-direct, machine-room
installations; SMP entry prices around $100-200K with $1M+ maximum
configurations (note 47).
"""

from __future__ import annotations

import difflib
from functools import lru_cache

import numpy as np

from repro.ctp.elements import ComputingElement
from repro.machines.microprocessors import find_micro
from repro.machines.spec import (
    Architecture,
    DistributionChannel,
    MachineSpec,
    SizeClass,
)
from repro.obs.errors import CatalogLookupError, ThresholdInfeasibleError
from repro.obs.trace import counter_inc

__all__ = [
    "COMMERCIAL_SYSTEMS",
    "find_machine",
    "commercial_by_year",
    "commercial_by_architecture",
    "max_available_mtops",
    "max_available_mtops_series",
    "max_config_mtops",
    "catalog_index_info",
    "append_machine_entry",
    "amend_machine_entry",
    "restore_baseline_catalog",
]


def _vector_cpu(name: str, clock: float, fp: float, integer: float) -> ComputingElement:
    """A vector-supercomputer CPU: concurrent vector FP pipes plus scalar,
    address, and logical hardware (which is why Cray CPUs rate well above
    their Mflops peak)."""
    return ComputingElement(
        name=name,
        clock_mhz=clock,
        word_bits=64.0,
        fp_ops_per_cycle=fp,
        int_ops_per_cycle=integer,
        concurrent_int_fp=True,
    )


_CRAY1_CPU = _vector_cpu("Cray-1 CPU", 80.0, 2.0, 0.5)
_XMP_CPU = _vector_cpu("X-MP CPU", 105.0, 2.0, 0.5)
_YMP_CPU = _vector_cpu("Y-MP CPU", 167.0, 2.0, 1.3)
_CRAY2_CPU = _vector_cpu("Cray-2 CPU", 244.0, 2.0, 0.5)
_C90_CPU = _vector_cpu("C90 CPU", 238.0, 4.0, 3.25)
_CM5_NODE = ComputingElement(
    name="CM-5 node",
    clock_mhz=32.0,
    word_bits=64.0,
    fp_ops_per_cycle=8.0,  # four vector units, add+multiply each
    int_ops_per_cycle=2.0,
    concurrent_int_fp=True,
)
_VPP500_PE = _vector_cpu("VPP500 PE", 100.0, 16.0, 2.0)
_VAX780_CPU = ComputingElement(
    name="VAX-11/780 CPU", clock_mhz=5.0, word_bits=32.0,
    fp_ops_per_cycle=0.05, int_ops_per_cycle=0.24, concurrent_int_fp=False,
)
_VAX8600_CPU = ComputingElement(
    name="VAX 8600 CPU", clock_mhz=12.5, word_bits=32.0,
    fp_ops_per_cycle=0.08, int_ops_per_cycle=0.2, concurrent_int_fp=False,
)
_PCXT_CPU = ComputingElement(
    name="8088", clock_mhz=4.77, word_bits=16.0,
    fp_ops_per_cycle=0.005, int_ops_per_cycle=0.07, concurrent_int_fp=False,
)
_IBM3090_CPU = ComputingElement(
    name="3090 CPU", clock_mhz=54.0, word_bits=64.0,
    fp_ops_per_cycle=1.0, int_ops_per_cycle=1.0, concurrent_int_fp=True,
)


def _m(**kw) -> MachineSpec:
    return MachineSpec(**kw)


COMMERCIAL_SYSTEMS: tuple[MachineSpec, ...] = (
    # ------------------------- historical anchors -------------------------
    _m(vendor="DEC", model="VAX-11/780", country="USA", year=1977.8,
       architecture=Architecture.UNIPROCESSOR, element=_VAX780_CPU,
       quoted_ctp_mtops=0.8, entry_price_usd=200_000, units_installed=100_000,
       channel=DistributionChannel.THIRD_PARTY, size_class=SizeClass.RACK,
       notes="Lockheed's estimate of the minimum machine for the F-117A design."),
    _m(vendor="DEC", model="VAX 8600", country="USA", year=1984.8,
       architecture=Architecture.UNIPROCESSOR, element=_VAX8600_CPU,
       entry_price_usd=450_000, units_installed=10_000, approx=True,
       channel=DistributionChannel.THIRD_PARTY, size_class=SizeClass.RACK,
       notes="Six-node cluster (~6 Mtops) ran trajectory image analysis."),
    _m(vendor="IBM", model="PC-XT", country="USA", year=1983.2,
       architecture=Architecture.UNIPROCESSOR, element=_PCXT_CPU,
       entry_price_usd=5_000, units_installed=5_000_000, approx=True,
       channel=DistributionChannel.THIRD_PARTY, size_class=SizeClass.DESKTOP,
       notes="Decontrolled January 1985 - the first uncontrollability concession."),
    _m(vendor="IBM", model="3090/250", country="USA", year=1987.0,
       architecture=Architecture.SMP, n_processors=2, element=_IBM3090_CPU,
       quoted_ctp_mtops=189.0, entry_price_usd=5_000_000, units_installed=1_000,
       channel=DistributionChannel.DIRECT, size_class=SizeClass.ROOM,
       notes="Designed the F-117A and one competing ATB (B-2) candidate."),
    # ------------------------- Cray vector line ---------------------------
    _m(vendor="Cray", model="Cray-1", country="USA", year=1976.3,
       architecture=Architecture.VECTOR, element=_CRAY1_CPU,
       quoted_peak_mflops=160.0, entry_price_usd=8_000_000, units_installed=80,
       channel=DistributionChannel.DIRECT, size_class=SizeClass.ROOM,
       notes="Its 160-Mflops peak set the first supercomputer definition."),
    _m(vendor="Cray", model="X-MP/2", country="USA", year=1983.5,
       architecture=Architecture.VECTOR, n_processors=2, element=_XMP_CPU,
       entry_price_usd=10_000_000, units_installed=200, approx=True,
       channel=DistributionChannel.DIRECT, size_class=SizeClass.ROOM,
       notes="The safeguarded 1986 Indian Weather Bureau import."),
    _m(vendor="Cray", model="Y-MP/2", country="USA", year=1988.5,
       architecture=Architecture.VECTOR, n_processors=2, element=_YMP_CPU,
       quoted_ctp_mtops=958.0, entry_price_usd=5_000_000, units_installed=300,
       channel=DistributionChannel.DIRECT, size_class=SizeClass.ROOM,
       notes="F-22 design machine."),
    _m(vendor="Cray", model="Y-MP/8", country="USA", year=1988.5,
       architecture=Architecture.VECTOR, n_processors=8, element=_YMP_CPU,
       entry_price_usd=20_000_000, units_installed=150, approx=True,
       channel=DistributionChannel.DIRECT, size_class=SizeClass.ROOM),
    _m(vendor="Cray", model="Cray-2/2", country="USA", year=1985.5,
       architecture=Architecture.VECTOR, n_processors=2, element=_CRAY2_CPU,
       quoted_ctp_mtops=1_098.0, entry_price_usd=12_000_000, units_installed=25,
       channel=DistributionChannel.DIRECT, size_class=SizeClass.ROOM,
       notes='The paper\'s "Cray Model 2 (1,098 Mtops)" armor/anti-armor machine.'),
    _m(vendor="Cray", model="C916", country="USA", year=1991.7,
       architecture=Architecture.VECTOR, n_processors=16, element=_C90_CPU,
       quoted_ctp_mtops=21_125.0, entry_price_usd=30_000_000, units_installed=60,
       channel=DistributionChannel.DIRECT, size_class=SizeClass.ROOM,
       notes="Workhorse of submarine CSM, acoustic sensor R&D, weapons effects."),
    _m(vendor="Cray", model="C90/8", country="USA", year=1991.7,
       architecture=Architecture.VECTOR, n_processors=8, element=_C90_CPU,
       quoted_ctp_mtops=10_625.0, entry_price_usd=18_000_000, units_installed=40,
       channel=DistributionChannel.DIRECT, size_class=SizeClass.ROOM,
       notes="Numerical weather prediction for all armed services."),
    _m(vendor="Cray", model="T90/32", country="USA", year=1995.2,
       architecture=Architecture.VECTOR, n_processors=32,
       element=_vector_cpu("T90 CPU", 450.0, 4.0, 3.25),
       entry_price_usd=35_000_000, units_installed=10, approx=True,
       channel=DistributionChannel.DIRECT, size_class=SizeClass.ROOM),
    # ------------------------- U.S. MPPs ----------------------------------
    _m(vendor="Intel", model="iPSC/860 (128)", country="USA", year=1990.2,
       architecture=Architecture.MPP, n_processors=128,
       element=find_micro("i860XR").element, quoted_ctp_mtops=3_485.0,
       entry_price_usd=1_500_000, units_installed=150, max_processors=128,
       channel=DistributionChannel.DIRECT, size_class=SizeClass.ROOM,
       notes="Believed minimally sufficient for the JAST design work."),
    _m(vendor="Intel", model="Paragon XP/S (150)", country="USA", year=1992.9,
       architecture=Architecture.MPP, n_processors=150,
       element=find_micro("i860XP").element, quoted_ctp_mtops=4_864.0,
       entry_price_usd=2_000_000, units_installed=100, max_processors=4096,
       channel=DistributionChannel.DIRECT, size_class=SizeClass.ROOM,
       notes="JAST candidate-aircraft design machine."),
    _m(vendor="Intel", model="Paragon XP/S (328)", country="USA", year=1992.9,
       architecture=Architecture.MPP, n_processors=328,
       element=find_micro("i860XP").element, quoted_ctp_mtops=8_980.0,
       entry_price_usd=5_000_000, units_installed=30, max_processors=4096,
       channel=DistributionChannel.DIRECT, size_class=SizeClass.ROOM, approx=True,
       notes="SIRST anti-ship-cruise-missile algorithm development."),
    _m(vendor="Intel", model="Paragon XP/S (352)", country="USA", year=1992.9,
       architecture=Architecture.MPP, n_processors=352,
       element=find_micro("i860XP").element, quoted_ctp_mtops=10_000.0,
       entry_price_usd=5_500_000, units_installed=20, max_processors=4096,
       channel=DistributionChannel.DIRECT, size_class=SizeClass.ROOM, approx=True),
    _m(vendor="Intel", model="Paragon XP/S 140 (6768)", country="USA", year=1995.0,
       architecture=Architecture.MPP, n_processors=6768,
       element=find_micro("i860XP").element, quoted_ctp_mtops=105_000.0,
       entry_price_usd=45_000_000, units_installed=1, max_processors=6768,
       channel=DistributionChannel.DIRECT, size_class=SizeClass.ROOM, approx=True,
       notes='The mid-1995 "state of the art, which exceeds 100,000 Mtops".'),
    _m(vendor="Cray", model="T3D (64)", country="USA", year=1993.7,
       architecture=Architecture.MPP, n_processors=64,
       element=find_micro("Alpha 21064-150").element, quoted_ctp_mtops=3_439.0,
       entry_price_usd=2_500_000, units_installed=60, max_processors=2048,
       channel=DistributionChannel.DIRECT, size_class=SizeClass.ROOM,
       notes="Flight-test trajectory image analysis upgrade machine."),
    _m(vendor="Cray", model="T3D (512)", country="USA", year=1993.7,
       architecture=Architecture.MPP, n_processors=512,
       element=find_micro("Alpha 21064-150").element, quoted_ctp_mtops=10_056.0,
       entry_price_usd=12_000_000, units_installed=10, max_processors=2048,
       channel=DistributionChannel.DIRECT, size_class=SizeClass.ROOM,
       notes="Acoustic-code MPP conversion target; nuclear blast simulation."),
    _m(vendor="Thinking Machines", model="CM-5 (128)", country="USA", year=1991.9,
       architecture=Architecture.MPP, n_processors=128, element=_CM5_NODE,
       quoted_ctp_mtops=5_194.0, entry_price_usd=3_000_000, units_installed=40,
       max_processors=1024, channel=DistributionChannel.DIRECT,
       size_class=SizeClass.ROOM,
       notes="Smart Munitions Test Suite image-processing partition."),
    _m(vendor="Thinking Machines", model="CM-5 (512)", country="USA", year=1991.9,
       architecture=Architecture.MPP, n_processors=512, element=_CM5_NODE,
       quoted_ctp_mtops=10_457.0, entry_price_usd=10_000_000, units_installed=10,
       max_processors=1024, channel=DistributionChannel.DIRECT,
       size_class=SizeClass.ROOM),
    _m(vendor="Thinking Machines", model="CM-5 (1024)", country="USA", year=1993.0,
       architecture=Architecture.MPP, n_processors=1024, element=_CM5_NODE,
       quoted_ctp_mtops=14_410.0, entry_price_usd=25_000_000, units_installed=2,
       max_processors=1024, channel=DistributionChannel.DIRECT,
       size_class=SizeClass.ROOM,
       notes="Smart Munitions upgrade target."),
    _m(vendor="IBM", model="SP2 (16)", country="USA", year=1994.3,
       architecture=Architecture.MPP, n_processors=16,
       element=find_micro("POWER2-66").element,
       entry_price_usd=750_000, units_installed=600, max_processors=512,
       channel=DistributionChannel.MIXED, size_class=SizeClass.RACK, approx=True,
       notes="Straddles dedicated-cluster and MPP classes (note 51)."),
    _m(vendor="IBM", model="SP2 (128)", country="USA", year=1994.3,
       architecture=Architecture.MPP, n_processors=128,
       element=find_micro("POWER2-66").element,
       entry_price_usd=5_000_000, units_installed=40, max_processors=512,
       channel=DistributionChannel.MIXED, size_class=SizeClass.ROOM, approx=True),
    _m(vendor="Convex", model="Exemplar SPP1000 (16)", country="USA", year=1994.3,
       architecture=Architecture.MPP, n_processors=16,
       element=find_micro("PA-7100-99").element,
       entry_price_usd=500_000, units_installed=100, max_processors=128,
       channel=DistributionChannel.DIRECT, size_class=SizeClass.RACK, approx=True,
       notes="Hierarchical shared-memory hypernodes in a distributed fabric."),
    _m(vendor="Mercury", model="RACE array", country="USA", year=1995.0,
       architecture=Architecture.MPP, n_processors=64, element=None,
       quoted_ctp_mtops=7_400.0, entry_price_usd=400_000, units_installed=200,
       channel=DistributionChannel.MIXED, size_class=SizeClass.RACK, approx=True,
       notes="Minimally sufficient deployed SIRST processor (~7,400 Mtops)."),
    # ------------------------- SMP servers (the frontier) -----------------
    _m(vendor="Sun", model="SPARCcenter 2000 (20)", country="USA", year=1992.9,
       architecture=Architecture.SMP, n_processors=20,
       element=find_micro("SuperSPARC-40").element,
       entry_price_usd=150_000, max_price_usd=1_000_000, units_installed=2_000,
       max_processors=20, channel=DistributionChannel.THIRD_PARTY,
       size_class=SizeClass.RACK, field_upgradable=True, approx=True),
    _m(vendor="SGI", model="Challenge XL (36)", country="USA", year=1993.2,
       architecture=Architecture.SMP, n_processors=36,
       element=find_micro("R4400-150").element,
       entry_price_usd=100_000, max_price_usd=1_000_000, units_installed=4_000,
       max_processors=36, channel=DistributionChannel.THIRD_PARTY,
       size_class=SizeClass.RACK, field_upgradable=True, approx=True,
       notes='"Several thousands of chassis" upgradable in the field (Ch. 3).'),
    _m(vendor="Cray", model="CS6400 (64)", country="USA", year=1993.8,
       architecture=Architecture.SMP, n_processors=64,
       element=find_micro("SuperSPARC-60").element,
       entry_price_usd=300_000, max_price_usd=2_000_000, units_installed=250,
       max_processors=64, channel=DistributionChannel.THIRD_PARTY,
       size_class=SizeClass.RACK, field_upgradable=True, approx=True,
       notes="Sold through the Sun-compatible reseller channel; "
             "hot-insertable processor boards - upgrades without a reboot."),
    _m(vendor="SGI", model="PowerChallenge (4)", country="USA", year=1994.5,
       architecture=Architecture.SMP, n_processors=4,
       element=find_micro("R8000-75").element, quoted_ctp_mtops=1_153.0,
       entry_price_usd=128_000, max_price_usd=1_200_000, units_installed=3_000,
       max_processors=18, channel=DistributionChannel.THIRD_PARTY,
       size_class=SizeClass.DESKSIDE, field_upgradable=True,
       notes="Store-separation simulation machine; note 47's price band."),
    _m(vendor="SGI", model="PowerOnyx (8)", country="USA", year=1994.5,
       architecture=Architecture.SMP, n_processors=8,
       element=find_micro("R8000-75").element, quoted_ctp_mtops=2_124.0,
       entry_price_usd=250_000, max_price_usd=1_200_000, units_installed=800,
       max_processors=18, channel=DistributionChannel.THIRD_PARTY,
       size_class=SizeClass.RACK, field_upgradable=True),
    _m(vendor="SGI", model="PowerChallenge XL (18)", country="USA", year=1994.5,
       architecture=Architecture.SMP, n_processors=18,
       element=find_micro("R8000-75").element,
       entry_price_usd=128_000, max_price_usd=1_200_000, units_installed=1_200,
       max_processors=18, channel=DistributionChannel.THIRD_PARTY,
       size_class=SizeClass.RACK, field_upgradable=True, approx=True,
       notes="Maximum configuration of note 47's $1.2M system."),
    _m(vendor="HP", model="T-500 (12)", country="USA", year=1995.0,
       architecture=Architecture.SMP, n_processors=12,
       element=find_micro("PA-7100-99").element,
       entry_price_usd=200_000, max_price_usd=1_500_000, units_installed=1_000,
       max_processors=12, channel=DistributionChannel.THIRD_PARTY,
       size_class=SizeClass.RACK, field_upgradable=True, approx=True),
    _m(vendor="DEC", model="AlphaServer 8400 (12)", country="USA", year=1995.4,
       architecture=Architecture.SMP, n_processors=12,
       element=find_micro("Alpha 21164-300").element,
       entry_price_usd=250_000, max_price_usd=2_000_000, units_installed=1_500,
       max_processors=12, channel=DistributionChannel.THIRD_PARTY,
       size_class=SizeClass.RACK, field_upgradable=True, approx=True,
       notes="Sold entirely through VARs/OEMs/integrators (Ch. 3)."),
    _m(vendor="Sun", model="Ultra Enterprise 6000 (30)", country="USA", year=1996.3,
       architecture=Architecture.SMP, n_processors=30,
       element=find_micro("UltraSPARC-167").element,
       entry_price_usd=300_000, max_price_usd=2_500_000, units_installed=2_000,
       max_processors=30, channel=DistributionChannel.THIRD_PARTY,
       size_class=SizeClass.RACK, field_upgradable=True, approx=True),
    _m(vendor="DEC", model="AlphaServer 8400 5/440 (12)", country="USA", year=1996.9,
       architecture=Architecture.SMP, n_processors=12,
       element=find_micro("Alpha 21164-300").element.scaled_clock(440.0),
       entry_price_usd=300_000, max_price_usd=2_500_000, units_installed=1_200,
       max_processors=12, channel=DistributionChannel.THIRD_PARTY,
       size_class=SizeClass.RACK, field_upgradable=True, approx=True),
    _m(vendor="Sun", model="Enterprise 10000 (64)", country="USA", year=1997.5,
       architecture=Architecture.SMP, n_processors=64,
       element=find_micro("UltraSPARC-167").element.scaled_clock(250.0),
       entry_price_usd=800_000, max_price_usd=5_000_000, units_installed=800,
       max_processors=64, channel=DistributionChannel.THIRD_PARTY,
       size_class=SizeClass.RACK, field_upgradable=True, approx=True,
       notes="End-of-decade SMP; carries the frontier past 16,000 Mtops."),
    # ------------------------- workstations -------------------------------
    _m(vendor="Sun", model="SPARCstation 4/300", country="USA", year=1989.3,
       architecture=Architecture.UNIPROCESSOR,
       element=ComputingElement("CY7C601", 25.0, 32.0, 0.25, 1.0, True),
       quoted_ctp_mtops=20.8, entry_price_usd=15_000, units_installed=100_000,
       channel=DistributionChannel.THIRD_PARTY, size_class=SizeClass.DESKTOP,
       notes="Desert Shield communications-architecture workstation."),
    _m(vendor="Sun", model="SPARCstation 10", country="USA", year=1992.4,
       architecture=Architecture.SMP, n_processors=1,
       element=find_micro("SuperSPARC-40").element, quoted_ctp_mtops=53.3,
       entry_price_usd=20_000, units_installed=300_000, max_processors=4,
       channel=DistributionChannel.THIRD_PARTY, size_class=SizeClass.DESKTOP,
       field_upgradable=True,
       notes="June 1992: multiprocessing reaches the volume workstation."),
    _m(vendor="DEC", model="3000/500", country="USA", year=1992.9,
       architecture=Architecture.UNIPROCESSOR,
       element=find_micro("Alpha 21064-150").element,
       entry_price_usd=35_000, units_installed=50_000, approx=True,
       channel=DistributionChannel.THIRD_PARTY, size_class=SizeClass.DESKTOP),
    _m(vendor="SGI", model="Onyx workstation (2)", country="USA", year=1993.5,
       architecture=Architecture.SMP, n_processors=2,
       element=find_micro("R4400-150").element, quoted_ctp_mtops=300.0,
       entry_price_usd=40_000, units_installed=20_000, max_processors=4,
       channel=DistributionChannel.THIRD_PARTY, size_class=SizeClass.DESKSIDE,
       field_upgradable=True, notes="ALERT theater missile-warning workstation."),
    _m(vendor="SGI", model="Onyx server (12)", country="USA", year=1993.5,
       architecture=Architecture.SMP, n_processors=12,
       element=find_micro("R4400-150").element, quoted_ctp_mtops=1_700.0,
       entry_price_usd=150_000, units_installed=3_000, max_processors=24,
       channel=DistributionChannel.THIRD_PARTY, size_class=SizeClass.RACK,
       field_upgradable=True, approx=True,
       notes="ALERT central processing suite server."),
    # -------------------- commercial-market MPP players -------------------
    _m(vendor="nCUBE", model="nCUBE 2 (1024)", country="USA", year=1990.0,
       architecture=Architecture.MPP, n_processors=1024,
       element=ComputingElement("nCUBE2", 20.0, 64.0, 0.35, 0.5, True),
       entry_price_usd=1_500_000, units_installed=150, max_processors=8192,
       channel=DistributionChannel.DIRECT, size_class=SizeClass.ROOM,
       approx=True,
       notes="Commercial MPP player of Chapter 3's market discussion."),
    _m(vendor="Unisys", model="OPUS (32)", country="USA", year=1995.3,
       architecture=Architecture.MPP, n_processors=32,
       element=find_micro("Pentium-133").element,
       entry_price_usd=800_000, units_installed=50, max_processors=64,
       channel=DistributionChannel.MIXED, size_class=SizeClass.RACK,
       approx=True,
       notes="Pentium nodes with an interconnect licensed from Intel SSD "
             "(Ch. 3).  Data-mining market."),
    _m(vendor="AT&T GIS", model="3600 (64)", country="USA", year=1993.5,
       architecture=Architecture.MPP, n_processors=64,
       element=ComputingElement("486DX2-66c", 66.0, 32.0, 0.33, 1.0, False),
       entry_price_usd=1_000_000, units_installed=300, max_processors=512,
       channel=DistributionChannel.MIXED, size_class=SizeClass.ROOM,
       approx=True,
       notes="Teradata-lineage commercial decision-support MPP."),
    _m(vendor="Tandem", model="Himalaya K10000 (16)", country="USA",
       year=1994.0, architecture=Architecture.MPP, n_processors=16,
       element=ComputingElement("MIPS R4400-100", 100.0, 64.0, 1.0, 1.0,
                                False),
       entry_price_usd=900_000, units_installed=400, max_processors=112,
       channel=DistributionChannel.MIXED, size_class=SizeClass.RACK,
       approx=True,
       notes="Fault-tolerant OLTP: the mainframe-replacement wave."),
    # ------------------------- mid-range vector ---------------------------
    _m(vendor="Convex", model="C3880", country="USA", year=1991.9,
       architecture=Architecture.VECTOR, n_processors=8,
       element=_vector_cpu("C38 CPU", 60.0, 2.0, 1.0),
       entry_price_usd=1_800_000, units_installed=200, approx=True,
       channel=DistributionChannel.DIRECT, size_class=SizeClass.ROOM,
       notes="Mid-range 'Crayette'; vendor-direct like its big siblings."),
    # ------------------------- workstations (more) ------------------------
    _m(vendor="IBM", model="RS/6000-590", country="USA", year=1994.3,
       architecture=Architecture.UNIPROCESSOR,
       element=find_micro("POWER2-66").element,
       entry_price_usd=60_000, units_installed=30_000, approx=True,
       channel=DistributionChannel.THIRD_PARTY, size_class=SizeClass.DESKSIDE,
       notes="The SP2 node sold as a desk-side workstation."),
    _m(vendor="HP", model="9000/735", country="USA", year=1992.9,
       architecture=Architecture.UNIPROCESSOR,
       element=find_micro("PA-7100-99").element,
       entry_price_usd=40_000, units_installed=60_000, approx=True,
       channel=DistributionChannel.THIRD_PARTY, size_class=SizeClass.DESKTOP),
    # ------------------------- Japanese vector line -----------------------
    _m(vendor="NEC", model="SX-3/44", country="Japan", year=1990.5,
       architecture=Architecture.VECTOR, n_processors=4, element=None,
       quoted_ctp_mtops=22_000.0, quoted_peak_mflops=22_000.0,
       entry_price_usd=25_000_000, units_installed=15, approx=True,
       channel=DistributionChannel.DIRECT, size_class=SizeClass.ROOM,
       notes="The bilateral Supercomputer Control Regime's other supplier."),
    _m(vendor="Fujitsu", model="VPP500 (80)", country="Japan", year=1993.3,
       architecture=Architecture.MPP, n_processors=80, element=_VPP500_PE,
       entry_price_usd=30_000_000, units_installed=20, max_processors=222,
       channel=DistributionChannel.DIRECT, size_class=SizeClass.ROOM, approx=True),
    _m(vendor="Hitachi", model="S-3800/480", country="Japan", year=1993.9,
       architecture=Architecture.VECTOR, n_processors=4, element=None,
       quoted_ctp_mtops=28_000.0, entry_price_usd=30_000_000, units_installed=10,
       approx=True, channel=DistributionChannel.DIRECT, size_class=SizeClass.ROOM),
)


def _normalize_key(key: str) -> str:
    """Case-fold and collapse surrounding/internal whitespace, so
    ``"  cray   c916 "`` resolves to the ``"Cray C916"`` catalog entry."""
    return " ".join(str(key).split()).casefold()


def find_machine(key: str) -> MachineSpec:
    """Look up a commercial system by ``"vendor model"`` key.

    The lookup is forgiving about case and whitespace.  A miss raises
    :class:`CatalogLookupError` naming the closest catalog keys.
    """
    counter_inc("catalog.lookups")
    machine = _BY_NORMALIZED_KEY.get(_normalize_key(key))
    if machine is not None:
        return machine
    counter_inc("catalog.lookup_misses")
    closest = difflib.get_close_matches(
        _normalize_key(key), list(_BY_NORMALIZED_KEY), n=3, cutoff=0.3
    )
    suggestions = [_BY_NORMALIZED_KEY[c].key for c in closest]
    hint = f"; closest: {', '.join(suggestions)}" if suggestions else ""
    raise CatalogLookupError(
        f"unknown machine {key!r}{hint}",
        context={"got": key, "closest": suggestions,
                 "catalog_size": len(_BY_KEY)},
    )


# Derived lookups: the key dicts, the per-architecture tuples and the
# year-sorted index.  The catalog is immutable between mutation events
# (repro.catalog.events), so the sort, the year array, and the running
# maximum of ratings are computed once per catalog by _install_catalog — at
# import, after every machine event, and on reset (52 machines: one sort and
# one accumulate).  Every query below is a bisect against these arrays
# instead of a fresh scan/sort of the catalog.


def _install_catalog(systems: tuple[MachineSpec, ...]) -> None:
    """Swap in a new machine tuple and rebuild every structure derived
    from it.  Re-exports on ``repro`` and ``repro.machines`` are
    refreshed."""
    global COMMERCIAL_SYSTEMS, _BY_KEY, _BY_NORMALIZED_KEY
    global _SORTED_BY_YEAR, _SORTED_YEARS, _RUNNING_MAX_MTOPS
    global _BY_ARCHITECTURE
    import sys

    COMMERCIAL_SYSTEMS = systems
    _BY_KEY = {m.key: m for m in systems}
    _BY_NORMALIZED_KEY = {_normalize_key(m.key): m for m in systems}
    _SORTED_BY_YEAR = tuple(sorted(systems, key=lambda m: (m.year, m.key)))
    _SORTED_YEARS = np.array([m.year for m in _SORTED_BY_YEAR])
    _RUNNING_MAX_MTOPS = np.maximum.accumulate(
        np.array([m.ctp_mtops for m in _SORTED_BY_YEAR]))
    _SORTED_YEARS.setflags(write=False)
    _RUNNING_MAX_MTOPS.setflags(write=False)
    _BY_ARCHITECTURE = {
        arch: tuple(m for m in _SORTED_BY_YEAR if m.architecture is arch)
        for arch in Architecture}
    for name in ("repro", "repro.machines"):
        module = sys.modules.get(name)
        if module is not None and hasattr(module, "COMMERCIAL_SYSTEMS"):
            module.COMMERCIAL_SYSTEMS = COMMERCIAL_SYSTEMS


_install_catalog(COMMERCIAL_SYSTEMS)
assert len(_BY_KEY) == len(COMMERCIAL_SYSTEMS), "duplicate machine keys"
assert len(_BY_NORMALIZED_KEY) == len(COMMERCIAL_SYSTEMS), \
    "machine keys collide after normalization"


#: The import-time catalog, kept for ``restore_baseline_catalog``.
_BASELINE_SYSTEMS: tuple[MachineSpec, ...] = COMMERCIAL_SYSTEMS


def commercial_by_year(through: float | None = None) -> list[MachineSpec]:
    """Catalog sorted by introduction year, optionally truncated."""
    if through is None:
        return list(_SORTED_BY_YEAR)
    cut = int(np.searchsorted(_SORTED_YEARS, through, side="right"))
    return list(_SORTED_BY_YEAR[:cut])


def commercial_by_architecture(arch: Architecture) -> list[MachineSpec]:
    """Catalog entries of one architecture class, by year."""
    return list(_BY_ARCHITECTURE[arch])


@lru_cache(maxsize=1024)
def max_config_mtops(machine: MachineSpec) -> float:
    """Memoized CTP of a machine family's maximum configuration.

    The frontier, the SMP trend, and the sensitivity analyses all rate
    machines at the ceiling a field upgrader can reach; computing that
    rating walks the CTP pipeline, so it is cached per (hashable, frozen)
    spec here rather than recomputed on every query.
    """
    return machine.max_configuration().ctp_mtops


def max_available_mtops(year: float) -> float:
    """Performance of the most powerful system commercially available at
    ``year`` — line D of Figure 3 ("the theoretical maximum of the
    threshold is the performance of the most powerful systems available").
    """
    counter_inc("catalog.bisect_lookups")
    idx = int(np.searchsorted(_SORTED_YEARS, year, side="right")) - 1
    if idx < 0:
        raise ThresholdInfeasibleError(
            f"no commercial systems introduced by {year}",
            context={"got": year,
                     "valid": f">= {float(_SORTED_YEARS[0])}"},
        )
    return float(_RUNNING_MAX_MTOPS[idx])


def max_available_mtops_series(
    years: "np.ndarray | list[float]",
) -> np.ndarray:
    """Line D evaluated over a whole year grid in one pass.

    Array-in/array-out companion of :func:`max_available_mtops`; grid
    points before the first cataloged system get 0.0 rather than raising,
    so callers can scan arbitrary grids without pre-clipping.
    """
    grid = np.asarray(years, dtype=float)
    counter_inc("catalog.bisect_lookups")
    counter_inc("catalog.bisect_grid_points", grid.size)
    idx = np.searchsorted(_SORTED_YEARS, grid, side="right") - 1
    out = np.zeros(grid.shape)
    mask = idx >= 0
    out[mask] = _RUNNING_MAX_MTOPS[idx[mask]]
    return out


def catalog_index_info() -> dict[str, int]:
    """Introspection for :func:`repro.obs.metrics_snapshot`: size of the
    precomputed year/running-max bisect index."""
    from repro.obs.trace import counters

    stats = counters()
    return {
        "systems": len(COMMERCIAL_SYSTEMS),
        "year_index_size": int(_SORTED_YEARS.size),
        "lookups": int(stats.get("catalog.lookups", 0)),
        "lookup_misses": int(stats.get("catalog.lookup_misses", 0)),
        "bisect_lookups": int(stats.get("catalog.bisect_lookups", 0)),
        "bisect_grid_points": int(stats.get("catalog.bisect_grid_points", 0)),
    }


# --------------------------------------------------------------------------
# Event-sourced mutation support (repro.catalog.events).
#
# Every mutation installs a whole new machine tuple through _install_catalog.
# Epoch bumps and invalidation of downstream stores are orchestrated by
# repro.catalog.events under its write guard.
# --------------------------------------------------------------------------


def append_machine_entry(machine: MachineSpec) -> None:
    """Add a new machine at the end of the catalog (row order is
    append-only)."""
    from repro.obs.errors import ValidationError

    if machine.key in _BY_KEY:
        raise ValidationError(
            f"machine {machine.key!r} already in catalog; use amend_machine",
            context={"got": machine.key, "valid": "a key not in the catalog"},
        )
    normalized = _normalize_key(machine.key)
    if normalized in _BY_NORMALIZED_KEY:
        raise ValidationError(
            f"machine key {machine.key!r} collides with "
            f"{_BY_NORMALIZED_KEY[normalized].key!r} after normalization",
            context={"got": machine.key,
                     "valid": "a key distinct after case/whitespace folding"},
        )
    _install_catalog(COMMERCIAL_SYSTEMS + (machine,))
    counter_inc("catalog.appends")


def amend_machine_entry(key: str, machine: MachineSpec) -> None:
    """Replace the catalog entry at ``key`` with ``machine``, keeping its
    row position."""
    from repro.obs.errors import ValidationError

    old = find_machine(key)
    other = _BY_NORMALIZED_KEY.get(_normalize_key(machine.key))
    if other is not None and other is not old:
        raise ValidationError(
            f"amended key {machine.key!r} collides with {other.key!r}",
            context={"got": machine.key,
                     "valid": "the amended key or an unused one"},
        )
    systems = list(COMMERCIAL_SYSTEMS)
    systems[systems.index(old)] = machine
    _install_catalog(tuple(systems))
    counter_inc("catalog.amends")


def restore_baseline_catalog() -> None:
    """Reinstate the import-time machine set (used by
    ``repro.catalog.events.reset_catalog``)."""
    _install_catalog(_BASELINE_SYSTEMS)
