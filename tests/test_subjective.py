import dataclasses
import random
import re

import numpy as np
import pytest

from abrbench import subjective
from abrbench.subjective import (
    RatingsMatrix,
    VideoMeta,
    build_sensitivity_report,
    keystroke_accuracy,
    partition_sessions,
    personal_mean_cdf,
    realign,
    reject_auxiliary,
    reject_bt500,
    z_normalize,
)


def simple_matrix(raw, sessions=None, days=None, devices=None):
    n_subj, n_videos = raw.shape
    subjects = [f"s{i}" for i in range(n_subj)]
    videos = [f"v{j}" for j in range(n_videos)]
    session_of = {v: (sessions[j] if sessions else "S1") for j, v in enumerate(videos)}
    day_of = {s: (days.get(s) if days else "D1") for s in set(session_of.values())}
    device_of = {s: (devices.get(s, "hdtv") if devices else "hdtv") for s in subjects}
    return RatingsMatrix(
        subjects=subjects,
        videos=videos,
        raw=np.asarray(raw, dtype=float),
        session_of=session_of,
        day_of=day_of,
        device_of=device_of,
    )


def test_z_normalize_symmetric_triple():
    m = simple_matrix(np.array([[10.0, 20.0, 30.0]]))
    z = z_normalize(m)
    assert z[0].tolist() == pytest.approx([-1.0, 0.0, 1.0])


def test_z_normalize_group_moments():
    rng = np.random.default_rng(3)
    raw = rng.uniform(5, 95, size=(6, 12))
    m = simple_matrix(raw)
    z = z_normalize(m)
    for i in range(6):
        assert z[i].mean() == pytest.approx(0.0, abs=1e-12)
        assert z[i].std(ddof=1) == pytest.approx(1.0, abs=1e-12)


def test_z_normalize_sessions_independent():
    raw = np.array([[10.0, 30.0, 55.0, 95.0]])
    sessions = ["A", "A", "B", "B"]
    m = simple_matrix(raw, sessions=sessions)
    z = z_normalize(m)
    assert z[0, :2].mean() == pytest.approx(0.0, abs=1e-12)
    assert z[0, 2:].mean() == pytest.approx(0.0, abs=1e-12)


def test_z_normalize_idempotent_on_normalized_groups():
    rng = np.random.default_rng(9)
    raw = rng.uniform(0, 100, size=(4, 10))
    m = simple_matrix(raw)
    z1 = z_normalize(m)
    # feed the z-scores back as a (shifted into range) matrix: the group
    # transform depends only on affine position, so z re-derives itself
    m2 = simple_matrix(50.0 + 10.0 * z1)
    z2 = z_normalize(m2)
    assert np.allclose(z1, z2)


def test_z_normalize_zero_spread_rejected():
    m = simple_matrix(np.array([[50.0, 50.0, 50.0]]))
    with pytest.raises(ValueError):
        z_normalize(m)


def test_z_normalize_single_rating_rejected():
    raw = np.array([[50.0, np.nan, np.nan]])
    m = simple_matrix(raw)
    with pytest.raises(ValueError):
        z_normalize(m)


def test_keystroke_accuracy_window():
    events = {("s0", "v0"): [10.4, 30.0], ("s0", "v1"): []}
    onsets = {"v0": [9.0, 30.5], "v1": [5.0]}
    acc = keystroke_accuracy(events, onsets, {"s0": ["v0", "v1"]}, tol_s=2.0)
    assert acc["s0"] == pytest.approx(2.0 / 3.0)


def test_keystroke_accuracy_no_stalls_is_perfect():
    acc = keystroke_accuracy({}, {}, {"s0": ["v0"]})
    assert acc["s0"] == 1.0


def test_reject_auxiliary_boundaries():
    raw = np.tile(np.array([[40.0, 60.0]]), (3, 1))
    m = simple_matrix(raw)
    keep = reject_auxiliary(m, {"s0": 1.0, "s1": 0.85, "s2": 0.90}, threshold=0.10)
    assert keep.tolist() == [True, False, True]


@pytest.mark.parametrize("bad", [1.5, -3.0])
def test_reject_auxiliary_refuses_an_accuracy_outside_the_unit_range(bad):
    # checked before anyone is screened: 1.5 would pass the screen, -3.0 fail it
    m = simple_matrix(np.tile(np.array([[40.0, 60.0]]), (3, 1)))
    with pytest.raises(ValueError, match=r"^keystroke accuracy of s1 outside \[0, 1\]$"):
        reject_auxiliary(m, {"s0": 1.0, "s1": bad, "s2": 0.9})
    with pytest.raises(ValueError, match="^no keystroke accuracy recorded for subject s2$"):
        reject_auxiliary(m, {"s0": 1.0, "s1": 1.0})


def test_ratings_matrix_is_frozen():
    m = simple_matrix(np.array([[40.0, 60.0]]))
    with pytest.raises(dataclasses.FrozenInstanceError):
        m.subjects = ["x"]
    assert [f.name for f in dataclasses.fields(RatingsMatrix)] == [
        "subjects", "videos", "raw", "session_of", "day_of", "device_of"
    ]


def test_reject_bt500_homogeneous_panel_keeps_everyone():
    # literally identical behaviour (per-subject offsets vanish in the
    # z-domain): no column has spread, so nobody can be flagged
    base = np.linspace(20, 80, 40)
    raw = np.vstack([np.clip(base + 3.0 * i, 0, 100) for i in range(6)])
    m = simple_matrix(raw)
    keep = reject_bt500(z_normalize(m))
    assert keep.all()


def test_reject_bt500_typical_noisy_panel_mostly_kept():
    rng = np.random.default_rng(1)
    base = np.linspace(10, 90, 50)
    raw = np.vstack([np.clip(base + rng.normal(0, 12.0, size=50), 0, 100) for _ in range(20)])
    m = simple_matrix(raw)
    keep = reject_bt500(z_normalize(m))
    assert keep.sum() >= 18


def test_reject_bt500_flags_inverted_subject():
    # honest raters need realistic spread: a lone clean outlier drives
    # the column kurtosis past 4 and the sqrt(20)-sigma branch would
    # shield it, which is exactly how the screening rule is specified
    rng = np.random.default_rng(0)
    base = np.linspace(10, 90, 50)
    rows = [np.clip(base + rng.normal(0, 15.0, size=50), 0, 100) for _ in range(30)]
    rows.append(np.clip(100.0 - base + rng.normal(0, 15.0, size=50), 0, 100))
    m = simple_matrix(np.vstack(rows))
    keep = reject_bt500(z_normalize(m))
    assert not keep[-1]
    assert keep[:-1].all()


def test_reject_bt500_single_pass_semantics():
    # decisions are simultaneous over the input panel: per-subject
    # outcomes depend only on the data, never on processing order
    rng = np.random.default_rng(0)
    base = np.linspace(10, 90, 50)
    rows = [np.clip(base + rng.normal(0, 15.0, size=50), 0, 100) for _ in range(30)]
    rows.append(np.clip(100.0 - base + rng.normal(0, 15.0, size=50), 0, 100))
    z = z_normalize(simple_matrix(np.vstack(rows)))
    keep = reject_bt500(z)
    perm = rng.permutation(len(keep))
    keep_perm = reject_bt500(z[perm])
    assert (keep_perm == keep[perm]).all()


def test_realign_round_trip_exact():
    # build two days with known linear maps, z-scores constructed directly
    rng = np.random.default_rng(7)
    n_videos = 20
    sessions = ["A"] * 10 + ["B"] * 10
    days = {"A": "D1", "B": "D2"}
    target = {"D1": (12.0, 55.0), "D2": (8.0, 40.0)}
    base_z = {}
    raw = np.zeros((6, n_videos))
    for sess, cols in (("A", range(10)), ("B", range(10, 20))):
        z_target = rng.normal(0, 1, size=10)
        z_target = (z_target - z_target.mean()) / z_target.std(ddof=1)
        for k, j in enumerate(cols):
            base_z[f"v{j}"] = z_target[k]
        for i in range(6):
            scale = rng.uniform(5, 15)
            offset = rng.uniform(30, 60)
            for k, j in enumerate(cols):
                raw[i, j] = offset + scale * z_target[k]
    raw = np.clip(raw, 0, 100)
    m = simple_matrix(raw, sessions=sessions, days=days)
    z = z_normalize(m)
    anchors = {
        "D1": [(f"v{j}", target["D1"][0] * base_z[f"v{j}"] + target["D1"][1]) for j in range(0, 10, 2)],
        "D2": [(f"v{j}", target["D2"][0] * base_z[f"v{j}"] + target["D2"][1]) for j in range(10, 20, 2)],
    }
    mos, mappings = realign(m, z, anchors)
    for day, (a, b) in target.items():
        assert mappings[day][0] == pytest.approx(a, abs=1e-9)
        assert mappings[day][1] == pytest.approx(b, abs=1e-9)
    for j in range(20):
        day = "D1" if j < 10 else "D2"
        a, b = target[day]
        assert mos[f"v{j}"] == pytest.approx(a * base_z[f"v{j}"] + b, abs=1e-9)


def test_realign_identity_mapping():
    raw = np.array(
        [
            [10.0, 30.0, 50.0, 70.0, 90.0],
            [12.0, 32.0, 52.0, 72.0, 92.0],
        ]
    )
    m = simple_matrix(raw)
    z = z_normalize(m)
    mean_z = np.nanmean(z, axis=0)
    anchors = {"D1": [(f"v{j}", float(mean_z[j])) for j in range(5)]}
    mos, mappings = realign(m, z, anchors)
    assert mappings["D1"][0] == pytest.approx(1.0, abs=1e-12)
    assert mappings["D1"][1] == pytest.approx(0.0, abs=1e-12)


def test_realign_underdetermined():
    m = simple_matrix(np.array([[10.0, 20.0, 80.0]]))
    z = z_normalize(m)
    with pytest.raises(ValueError):
        realign(m, z, {"D1": [("v0", 50.0)]})


def test_partition_rule_traces():
    meta = {
        "clean": VideoMeta(82.0, 4.0, 0.0),
        "stalled": VideoMeta(78.0, 6.0, 2.5),
        "too_good": VideoMeta(95.0, 3.0, 0.0),
        "short_stall": VideoMeta(80.0, 5.0, 0.5),
        "varying": VideoMeta(80.0, 15.0, 0.0),
        "low": VideoMeta(40.0, 5.0, 0.0),
    }
    parts = partition_sessions(meta)
    assert "clean" in parts["q_r_bar"]
    assert "stalled" in parts["q_r"]
    assert "too_good" not in parts["q_r_bar"] and "too_good" not in parts["q_r"]
    assert "short_stall" not in parts["q_r"] and "short_stall" not in parts["q_r_bar"]
    assert "varying" in parts["q_a"] and "clean" in parts["q_a_bar"]
    assert "low" in parts["q_q_bar"] and "clean" in parts["q_q"]
    assert partition_sessions({}) == {k: [] for k in parts}


def sensitivity_row(ratings: dict[str, float], partitions, min_set=30):
    """The sensitivity report's row for one subject who rated ``ratings`` (video -> score)."""
    m = simple_matrix(np.array([list(ratings.values())]))
    m = dataclasses.replace(m, videos=list(ratings), session_of=dict.fromkeys(ratings, "S1"))
    (row,) = build_sensitivity_report(m, partitions, min_set=min_set)
    return row


def test_sensitivity_values_and_shift_invariance():
    q_no = [f"a{i}" for i in range(30)]
    q_yes = [f"b{i}" for i in range(30)]
    parts = {"q_r_bar": q_no, "q_r": q_yes}
    ratings = {v: 80.0 for v in q_no} | {v: 50.0 for v in q_yes}
    assert sensitivity_row(ratings, parts).s_r == pytest.approx(30.0)
    shifted = {v: r + 7.5 for v, r in ratings.items()}
    assert sensitivity_row(shifted, parts).s_r == pytest.approx(30.0)
    same = {v: 66.0 for v in q_no + q_yes}
    assert sensitivity_row(same, parts).s_r == 0.0


def test_sensitivity_undersized_set_rejected():
    ratings = {f"a{i}": 80.0 for i in range(10)} | {f"b{i}": 50.0 for i in range(30)}
    parts = {"q_q": [f"a{i}" for i in range(10)], "q_q_bar": [f"b{i}" for i in range(30)]}
    row = sensitivity_row(ratings, parts)
    assert row.s_q is None and row.set_sizes["q_q"] == 10 and row.set_sizes["q_q_bar"] == 30
    assert sensitivity_row(ratings, parts, min_set=10).s_q == pytest.approx(30.0)


def test_sensitivity_positive_slope_scaling_preserves_order():
    # ratings near 17.5 and 10, so that scaling by up to 4 stays on the 0-100 scale
    rng = random.Random(3)
    q_a = [f"a{i}" for i in range(30)]
    q_b = [f"b{i}" for i in range(30)]
    parts = {"q_a": q_a, "q_a_bar": q_b}
    base = []
    for k in range(4):
        ratings = {v: 17.5 + rng.uniform(-0.5, 0.5) for v in q_a} | {v: 10.0 + rng.uniform(-0.5, 0.5) for v in q_b}
        base.append((ratings, 1.0 + k))
    raw_values = [sensitivity_row(r, parts).s_a * s for r, s in base]
    scaled_values = [sensitivity_row({v: x * s for v, x in r.items()}, parts).s_a for r, s in base]
    assert np.argsort(raw_values).tolist() == np.argsort(scaled_values).tolist()
    for (r, s), v in zip(base, scaled_values):
        assert v == pytest.approx(sensitivity_row(r, parts).s_a * s)


def test_sensitivity_report_handles_missing_sets():
    raw = np.random.default_rng(0).uniform(20, 90, size=(3, 8))
    m = simple_matrix(raw)
    parts = partition_sessions({f"v{j}": VideoMeta(80.0, 4.0, 0.0) for j in range(8)})
    report = build_sensitivity_report(m, parts, min_set=30)
    assert all(row.s_r is None for row in report)  # sets far too small
    report2 = build_sensitivity_report(m, parts, min_set=1)
    assert all(row.s_a is None for row in report2)  # no varying videos at all


@pytest.mark.parametrize("min_set", [0, -1, True, 1.0])
def test_sensitivity_report_refuses_a_min_set_below_one(min_set):
    # with min_set 0, a partition the subject has not rated would pass the size
    # test and divide by zero
    m = simple_matrix(np.array([[np.nan, 55.0]]))
    with pytest.raises(ValueError, match=r"min_set must be an integer >= 1"):
        build_sensitivity_report(m, {"q_r_bar": ["v0"]}, min_set=min_set)


def test_personal_mean_cdf_single_subject():
    m = simple_matrix(np.array([[40.0, 60.0]]))
    (means, cdf) = personal_mean_cdf(m)["hdtv"]
    assert means.tolist() == [50.0]
    assert cdf.tolist() == [1.0]


def test_personal_mean_cdf_three_subjects():
    raw = np.array([[60.0, 60.0], [70.0, 70.0], [80.0, 80.0]])
    m = simple_matrix(raw)
    means, cdf = personal_mean_cdf(m)["hdtv"]
    assert means.tolist() == [60.0, 70.0, 80.0]
    assert cdf.tolist() == pytest.approx([1 / 3, 2 / 3, 1.0])


def test_personal_mean_cdf_monotone_ends_at_one():
    rng = np.random.default_rng(11)
    raw = rng.uniform(0, 100, size=(9, 6))
    devices = {f"s{i}": ("phone" if i % 2 else "uhdtv") for i in range(9)}
    m = simple_matrix(raw, devices=devices)
    for means, cdf in personal_mean_cdf(m).values():
        assert (np.diff(cdf) > 0).all()
        assert cdf[-1] == 1.0
        assert (np.diff(means) >= 0).all()


def test_csv_round_trips():
    text = (
        "subject_id,video_id,session_id,day,device,score\n"
        "s0,v0,A,D1,phone,55\n"
        "s0,v1,A,D1,phone,70\n"
        "s1,v0,A,D1,hdtv,60\n"
        "s1,v1,A,D1,hdtv,80\n"
    )
    m = subjective.load_ratings_csv(text)
    assert m.subjects == ["s0", "s1"]
    assert m.videos == ["v0", "v1"]
    assert m.raw[1, 1] == 80.0
    assert m.device_of["s1"] == "hdtv"

    ks = subjective.load_keystrokes_csv("subject_id,video_id,event_time_s\ns0,v0,4.2\ns0,v0,9.9\n")
    assert ks[("s0", "v0")] == [4.2, 9.9]

    meta = subjective.load_video_meta_csv("video_id,mean_quality,quality_std,total_stall_s\nv0,80,5,0\n")
    assert meta == {"v0": VideoMeta(80.0, 5.0, 0.0)}
    # extra columns, such as the first_quality/last_quality of older files, are ignored
    older = "video_id,mean_quality,quality_std,total_stall_s,first_quality,last_quality\nv0,80,5,0,78,82\n"
    assert subjective.load_video_meta_csv(older) == meta

    onsets = subjective.load_stall_events_csv("video_id,position_s,duration_s\nv0,8.0,2.0\n")
    assert onsets["v0"] == [8.0]

    anchors = subjective.load_anchors_csv("day,video_id,mos\nD1,v0,55.5\n")
    assert anchors["D1"] == [("v0", 55.5)]


def test_load_ratings_keeps_first_seen_order_and_the_last_duplicate():
    text = (
        "subject_id,video_id,session_id,day,device,score\n"
        "s2,vB,A,D1,phone,10\n"
        "s1,vA,A,D1,hdtv,20\n"
        "s2,vA,A,D1,phone,30\n"
        "s2,vB,A,D1,phone,50\n"  # a later row for (s2, vB) replaces the earlier score
        "s3,vC,A,D1,tv,60\n"
    )
    m = subjective.load_ratings_csv(text)
    assert m.subjects == ["s2", "s1", "s3"]
    assert m.videos == ["vB", "vA", "vC"]
    nan = np.nan
    np.testing.assert_array_equal(m.raw, [[50.0, 30.0, nan], [nan, 20.0, nan], [nan, nan, 60.0]])
    assert m.device_of == {"s2": "phone", "s1": "hdtv", "s3": "tv"}


@pytest.mark.parametrize("bad", ["abc", "nan", "-inf", ""])
def test_load_ratings_rejects_non_finite_scores_naming_source_and_line(bad):
    text = "subject_id,video_id,session_id,day,device,score\ns0,v0,A,D1,tv,55\ns0,v1,A,D1,tv," + bad + "\n"
    with pytest.raises(ValueError, match=f"panel.csv line 3: score must be a finite number, got '{bad}'"):
        subjective.load_ratings_csv(text, "panel.csv")


@pytest.mark.parametrize(
    "later, message",
    [
        ("s1,v0,B,D1,tv,60", "video 'v0' has session_id 'B', but an earlier row gives 'A'"),
        ("s1,v1,A,D2,tv,60", "session 'A' has day 'D2', but an earlier row gives 'D1'"),
        ("s0,v1,A,D1,phone,60", "subject 's0' has device 'phone', but an earlier row gives 'tv'"),
    ],
    ids=["video_in_two_sessions", "session_on_two_days", "subject_on_two_devices"],
)
def test_load_ratings_refuses_a_row_that_contradicts_earlier_metadata(later, message):
    # a video has one session, a session one day and a subject one device: a later row never overrides them
    text = "subject_id,video_id,session_id,day,device,score\ns0,v0,A,D1,tv,55\ns1,v1,A,D1,tv,70\n" + later + "\n"
    with pytest.raises(ValueError, match=re.escape(f"panel.csv line 4: {message}")):
        subjective.load_ratings_csv(text, "panel.csv")


@pytest.mark.parametrize("bad", ["150", "-1", "100.5", "-0.001", "1e3"])
def test_load_ratings_refuses_an_out_of_range_score_naming_source_and_line(bad):
    # RatingsMatrix refused it later, without naming the file or the line
    text = "subject_id,video_id,session_id,day,device,score\ns0,v0,A,D1,tv,55\ns0,v1,A,D1,tv," + bad + "\n"
    message = f"panel.csv line 3: score must be a number in [0, 100], got '{bad}'"
    with pytest.raises(ValueError, match=re.escape(message)):
        subjective.load_ratings_csv(text, "panel.csv")
    edges = subjective.load_ratings_csv("subject_id,video_id,session_id,day,device,score\ns0,v0,A,D1,tv,0\n"
                                        "s0,v1,A,D1,tv,100\ns0,v2,A,D1,tv,-0\n")
    assert edges.raw.tolist() == [[0.0, 100.0, -0.0]]


def test_csv_rows_read_fields_as_dict_reader_does():
    # columns in any order, a column named twice (the last one counts), short rows (None), blank lines
    # (skipped) and a quoted field over two lines (the line number is the row's last line)
    text = 'score,x,subject_id,score\n1,a,s0,2\n\n3,b\n4,"c\nd",s2,5,extra\n6\n'
    got = list(subjective.csv_rows(text, ("subject_id", "score"), "test"))
    assert got == [(2, ("s0", "2")), (4, (None, None)), (6, ("s2", "5")), (7, (None, None))]
    with pytest.raises(ValueError, match=re.escape("test CSV lacks columns ['mos']; it must carry ['score', 'mos']")):
        subjective.csv_rows(text, ("score", "mos"), "test")
    with pytest.raises(ValueError, match="lacks columns"):
        subjective.csv_rows("", ("a", "b"), "test")


def ratings_text(seed):
    """A seeded ratings panel with gaps, repeated (subject, video) rows, int and edge scores."""
    rng = random.Random(seed)
    rows = []
    for i in range(14):
        for j in range(40):
            if rng.random() < 0.8:
                score = rng.choice((0, 100, 55, rng.uniform(0.0, 100.0), round(rng.uniform(0.0, 100.0), 1)))
                rows.append(f"u{i},v{j},s{j // 8},d{j // 16},dev{i % 3},{score}")
    rows += [rows[k].rsplit(",", 1)[0] + f",{rng.uniform(0.0, 100.0)}" for k in rng.sample(range(len(rows)), 40)]
    rng.shuffle(rows)
    return "subject_id,video_id,session_id,day,device,score\n" + "\n".join(rows) + "\n"


def test_analysis_equals_the_reference_loops_bit_for_bit():
    import oracles

    for seed in (3, 4, 5):
        text = ratings_text(seed)
        m = subjective.load_ratings_csv(text, "panel.csv")
        subjects, videos, raw, session_of, day_of, device_of = oracles.load_ratings_csv(text, "panel.csv")
        assert (m.subjects, m.videos, m.raw.tobytes()) == (subjects, videos, raw.tobytes())
        for got, want in ((m.session_of, session_of), (m.day_of, day_of), (m.device_of, device_of)):
            assert list(got.items()) == list(want.items())
        assert z_normalize(m).tobytes() == oracles.z_normalize(m).tobytes()

        rng = random.Random(seed)
        meta = {f"v{j}": VideoMeta(rng.choice((75.0, 80.0, 50.0)), rng.choice((2.0, 15.0)), rng.choice((0.0, 3.0)))
                for j in range(-3, 40)}  # v-3..v-1 are in no matrix
        partitions = partition_sessions(meta)
        partitions["q_q"] += ["v5", "v5", "nowhere"]  # a repeated video counts twice, an unknown one not at all
        for min_set in (1, 4, 8, 30):
            report = build_sensitivity_report(m, partitions, min_set=min_set)
            want = oracles.build_sensitivity_report(m, partitions, min_set=min_set)
            assert [(r.subject, repr(r.s_r), repr(r.s_q), repr(r.s_a), r.set_sizes) for r in report] == [
                (s, repr(None if x is None else float(x)), repr(None if y is None else float(y)),
                 repr(None if z is None else float(z)), sizes) for s, x, y, z, sizes in want
            ]
            if min_set == 1:  # every sensitivity is computed somewhere, and the 30-video floor leaves none
                assert all(any(getattr(r, k) is not None for r in report) for k in ("s_r", "s_q", "s_a"))
            if min_set == 30:
                assert all(r.s_r is r.s_q is r.s_a is None for r in report)
