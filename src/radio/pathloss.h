// Path loss of the paper's uplink channel.
//
// L[dB] = 140.7 + 36.7 * log10(d[km])  (the 3GPP UMa NLOS form at 2 GHz,
// Sec. V of the paper). Distances below 10 m are clamped to 10 m to avoid
// the singularity at d = 0. ChannelModel adds the 8 dB log-normal
// shadowing on top.
#pragma once

namespace tsajs::radio {

/// Path loss [dB] at link distance `distance_m` [m]. Throws
/// InvalidArgumentError for a negative distance.
[[nodiscard]] double paper_pathloss_db(double distance_m);

}  // namespace tsajs::radio
