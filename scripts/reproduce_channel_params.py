#!/usr/bin/env python3
"""Compute the global channel parameters for the two reference scenarios
(equator user with a 30 degree mask; latitude-60 user with a 10 degree
mask) and print them side by side."""

from leo_channel.channel import global_params
from leo_channel.config import load_config
from leo_channel.geometry import ShellConfig
from leo_channel.visibility import CapModel

SCENARIOS = {
    "equator, 30 deg mask": (0.0, 30.0),
    "lat 60, 10 deg mask": (60.0, 10.0),
}


def main() -> None:
    shell = ShellConfig()
    results = {}
    for name, (lat_deg, elev_deg) in SCENARIOS.items():
        user = load_config(None, {"lat_deg": lat_deg,
                                  "min_elev_deg": elev_deg}).user(shell)
        results[name] = global_params(CapModel(shell, user))

    rows = [
        ("path loss [dB]", "path_loss_db", 1.0),
        ("mean delay [ms]", "mean_delay_s", 1e3),
        ("rms delay spread [ms]", "rms_delay_spread_s", 1e3),
        ("mean doppler [kHz]", "mean_doppler_hz", 1e-3),
        ("rms doppler spread [kHz]", "rms_doppler_spread_hz", 1e-3),
        ("channel spread 2*st*sn", "channel_spread", 1.0),
        ("availability", "availability", 1.0),
    ]
    names = list(results)
    print(f"{'parameter':28s} " + " ".join(f"{n:>22s}" for n in names))
    for label, attr, scale in rows:
        vals = [getattr(results[n], attr) * scale for n in names]
        print(f"{label:28s} " + " ".join(f"{v:22.4f}" for v in vals))


if __name__ == "__main__":
    main()
