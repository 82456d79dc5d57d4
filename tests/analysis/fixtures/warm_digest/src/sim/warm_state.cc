// Miniature digest: warmConfigDigest covers 'ways' only.
unsigned long
warmConfigDigest(const WarmConfig &cfg)
{
    unsigned long h = 1469598103934665603UL;
    h = (h ^ cfg.ways) * 1099511628211UL;
    return h;
}
